//! # ffw-mpi
//!
//! An in-process message-passing runtime standing in for MPI in the paper's
//! two-dimensional parallelization (Section IV). Ranks are OS threads; each
//! directed rank pair has a tag-matched mailbox. Every message is accounted
//! per edge (count + bytes), so the distributed solver can report exactly the
//! communication volumes the performance model consumes, and ablations can
//! show the effect of the paper's buffer-aggregation optimization (Section
//! IV-B).
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
//! ## Verification (ffw-check integration)
//!
//! The runtime is self-checking, in two tiers:
//!
//! * **Deadlock watchdog.** Every rank publishes what it is blocked on (a
//!   [`ffw_check::WaitState`]) in a shared registry. Blocking waits use a
//!   timeout (`FFW_DEADLOCK_TIMEOUT_MS`, default 1000 ms); on timeout the
//!   waiter snapshots the registry, reconstructs the global wait-for graph
//!   with [`ffw_check::diagnose_deadlock`], confirms the diagnosis against a
//!   second snapshot, and panics with a readable report naming every rank and
//!   the cycle (or the dependency on a finished/panicked rank). Only
//!   *definite* deadlocks are reported — a slow peer never trips the
//!   watchdog.
//! * **Post-run trace validation.** Each rank records a low-overhead
//!   [`ffw_check::Event`] trace of its sends, receives and fault events.
//!   When [`run`] exits normally, the traces plus any undelivered messages
//!   are handed to [`ffw_check::validate_traces`]; message leaks, self-sends
//!   and fault protocols left unresolved fail the run with a report.
//!
//! A panicking rank is marked [`ffw_check::WaitState::Panicked`] rather than
//! silently disappearing, and the launch wakes every receive waiting on it,
//! so a peer blocked on it gets a diagnosed error at once instead of after
//! the watchdog timeout (or a hang); [`run`] then re-raises the
//! lowest-ranked panic. A rank that *finishes* cleanly wakes nobody: a
//! receive still waiting on it is a protocol bug the watchdog diagnoses on
//! its timeout.
//!
//! ## Fault injection and fault-aware launches
//!
//! [`Runtime`] is the builder behind [`run`]: it adds a programmatic
//! deadlock-timeout knob and accepts a seeded [`ffw_fault::FaultPlan`] that
//! can crash a rank at its N-th runtime operation, drop a specific send
//! (the runtime retries with bounded backoff before declaring the peer dead
//! with [`ffw_fault::FaultError::SendLost`]), or delay a rank's operations
//! (straggler model). Every injected fault is recorded in the event trace
//! ([`ffw_check::FaultEvent`]). [`Runtime::launch`] returns per-rank
//! [`RankOutcome`]s instead of panicking, so a crashed rank is data, not an
//! abort; the fallible `send_checked`/`recv_checked` operations let rank
//! code observe a dead peer as a typed [`ffw_fault::FaultError`] value and
//! degrade gracefully (the fault-tolerant DBIM driver in `ffw-dist` builds
//! on exactly this).
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
use ffw_fault::{abft_verify_c64, crc32_c64, ActiveFaults, OpAction};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use ffw_check::trace::FaultEvent;
pub use ffw_fault::{ComputeFault, FaultError, FaultPlan, RetryPolicy};

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

    /// CRC-32 of the payload's raw bit patterns (the integrity frame every
    /// message travels with).
    pub fn crc32(&self) -> u32 {
        let Payload::C64(v) = self;
        crc32_c64(v)
    }

    /// A copy with one payload bit flipped (deterministically chosen from
    /// `salt`), used by fault injection to model in-flight corruption. An
    /// empty payload has no bits to flip and is returned unchanged.
    fn bit_flipped(&self, salt: u32) -> Payload {
        let Payload::C64(v) = self;
        let mut v = v.clone();
        let idx = salt as usize % v.len().max(1);
        if let Some(first) = v.get_mut(idx) {
            first.0 = f64::from_bits(first.0.to_bits() ^ (1u64 << (11 + (salt as u64 % 40))));
        }
        Payload::C64(v)
    }
}

/// A framed message as it sits in a mailbox: the payload plus integrity
/// metadata. The CRC and optional ABFT lane are frame metadata, not wire
/// payload — `CommStats` byte accounting is unchanged by framing.
struct Msg {
    tag: u32,
    /// CRC-32 of the payload computed by the sender.
    crc: u32,
    /// ABFT checksum lane (element sum) for reduction payloads.
    lane: Option<(f64, f64)>,
    /// Remaining delivery attempts fault injection corrupts in flight.
    corrupt_left: u32,
    /// Corrupted delivery attempts already observed by the receiver.
    corrupt_seen: u32,
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

    /// Requeue a NACKed frame at the front (a retransmit must not reorder
    /// against other messages on the same edge+tag).
    fn requeue_front(&self, msg: Msg) {
        let mut q = self.queue.lock();
        q.push_front(msg);
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
    /// Activated fault plan, if this launch injects faults.
    faults: Option<ActiveFaults>,
    /// panicked[r] is set when rank r's closure panicked, after the
    /// registry shows `Panicked`; a receive reads it under its queue lock
    /// before every wait. An atomic, so that read never nests the registry
    /// lock inside a mailbox lock.
    panicked: Vec<AtomicBool>,
}

impl Shared {
    fn set_state(&self, rank: usize, state: WaitState) {
        self.registry.lock()[rank] = state;
    }

    /// The retry policy active for this launch (default when no fault plan).
    fn retry(&self) -> RetryPolicy {
        self.faults.as_ref().map(|f| f.retry()).unwrap_or_default()
    }

    /// Watchdog invoked by `rank` when a blocking wait times out. Every
    /// positive diagnosis is re-confirmed against a second snapshot taken
    /// after a short delay, so a transient state observed mid-transition can
    /// never produce a report.
    ///
    /// Outcomes:
    /// * `Ok(())` — no confirmed problem with *this rank's* wait; keep
    ///   waiting. (Another rank's doomed wait is its own to report: every
    ///   blocking wait polls, so errors cascade rank by rank.)
    /// * `Err(PeerDead)` — this rank's wait depends on a rank that already
    ///   finished or panicked and can never satisfy it. The receive returns
    ///   it as a typed error value.
    /// * panic — a confirmed cycle of live ranks: a protocol bug, not a
    ///   survivable fault. The first verdict is stored so every stuck rank
    ///   re-raises the *original* diagnosis.
    fn watchdog_poll(&self, rank: usize) -> Result<(), FaultError> {
        if let Some(report) = self.verdict.lock().clone() {
            panic!("{report}");
        }
        const CONFIRM: Duration = Duration::from_millis(50);
        // This rank's own wait first: a dependency on a dead rank is a
        // recoverable fault surfaced as a value.
        if let Some(peer) = self.dead_dependency_of(rank) {
            std::thread::sleep(CONFIRM);
            if self.dead_dependency_of(rank) == Some(peer) {
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
            return Ok(());
        }
        let Some(first) = self.diagnose_once() else {
            return Ok(());
        };
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

    /// Consults the active fault plan (if any) at the start of a runtime
    /// operation: may delay the rank (straggler model) or crash it with a
    /// typed [`FaultError::InjectedCrash`], recording the fault in the
    /// trace first. A no-op (one `Option` check) when no plan is active.
    fn fault_tick(&self) {
        let Some(faults) = &self.shared.faults else {
            return;
        };
        match faults.on_op(self.rank) {
            OpAction::Proceed => {}
            OpAction::Delay { delay_ms, .. } => {
                self.shared
                    .trace(self.rank, Event::Fault(FaultEvent::Straggle { delay_ms }));
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            OpAction::Crash { op } => {
                self.shared
                    .trace(self.rank, Event::Fault(FaultEvent::InjectedCrash { op }));
                panic_any(FaultError::InjectedCrash {
                    rank: self.rank,
                    op,
                });
            }
        }
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

    /// Records a compute-integrity fault event in this rank's trace so the
    /// post-run `ffw-check` validation can verify every detected corruption
    /// was resolved (recovered or escalated as a typed error).
    pub fn trace_fault(&self, event: FaultEvent) {
        self.shared.trace(self.rank, Event::Fault(event));
    }

    /// Buffered, non-blocking send: retries delivery with bounded
    /// exponential backoff when fault injection drops the message, and
    /// returns [`FaultError::SendLost`] (declaring `dst` dead) once the retry
    /// budget is exhausted. Without an active fault plan this always
    /// succeeds.
    pub fn send_checked(&self, dst: usize, tag: u32, payload: Payload) -> Result<(), FaultError> {
        self.send_checked_framed(dst, tag, payload, None)
    }

    /// Checked send that additionally stamps an explicit ABFT checksum lane
    /// into the integrity frame. The lane travels as frame metadata (it is
    /// not counted as payload bytes) and is verified by
    /// [`Comm::recv_checked_laned`] against the data it arrives with, so a
    /// higher-level reduction can carry the *expected element sum* through a
    /// hop and have the receiver detect corruption the per-message CRC
    /// cannot see — damage that happened before framing, e.g. inside the
    /// reduction arithmetic. Injected drop/corruption faults apply exactly
    /// as in [`Comm::send_checked`].
    pub fn send_checked_laned(
        &self,
        dst: usize,
        tag: u32,
        payload: Payload,
        lane: (f64, f64),
    ) -> Result<(), FaultError> {
        self.send_checked_framed(dst, tag, payload, Some(lane))
    }

    fn send_checked_framed(
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
        self.fault_tick();
        let mut corrupts = 0;
        if let Some(faults) = &self.shared.faults {
            let fault = faults.on_send(self.rank, dst);
            corrupts = fault.corrupts;
            let retry = faults.retry();
            for attempt in 0..fault.drops {
                if attempt >= retry.max_retries {
                    let attempts = attempt + 1;
                    self.shared.trace(
                        self.rank,
                        Event::Fault(FaultEvent::SendRetriesExhausted { dst, tag, attempts }),
                    );
                    return Err(FaultError::SendLost {
                        rank: self.rank,
                        dst,
                        tag,
                        attempts,
                    });
                }
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::SendDropped {
                        dst,
                        tag,
                        attempt: attempt + 1,
                    }),
                );
                std::thread::sleep(Duration::from_millis(retry.backoff_ms(attempt)));
            }
        }
        self.shared.trace(
            self.rank,
            Event::Send {
                dst,
                tag,
                bytes: payload.n_bytes(),
            },
        );
        self.send_frame(dst, tag, payload, lane, corrupts);
        Ok(())
    }

    /// Stamps the integrity frame (CRC-32 + optional ABFT lane) and delivers
    /// to the destination mailbox. `corrupts` schedules that many delivery
    /// attempts to arrive bit-flipped (fault injection).
    fn send_frame(
        &self,
        dst: usize,
        tag: u32,
        payload: Payload,
        lane: Option<(f64, f64)>,
        corrupts: u32,
    ) {
        self.shared.stats.record(self.rank, dst, payload.n_bytes());
        let crc = payload.crc32();
        self.shared.mailboxes[self.rank * self.shared.size + dst].push(Msg {
            tag,
            crc,
            lane,
            corrupt_left: corrupts,
            corrupt_seen: 0,
            payload,
        });
    }

    /// Blocking receive of the message with the given source and tag:
    /// returns [`FaultError::PeerDead`] (with the watchdog's wait-for-graph
    /// report) if `src` finishes or panics without having sent a matching
    /// message.
    pub fn recv_checked(&self, src: usize, tag: u32) -> Result<Payload, FaultError> {
        assert!(
            src < self.shared.size,
            "recv: invalid source rank {src} (communicator has {} ranks)",
            self.shared.size
        );
        self.fault_tick();
        let payload = self.recv_frame_verified(src, tag)?.payload;
        self.shared.trace(
            self.rank,
            Event::Recv {
                src,
                tag,
                bytes: payload.n_bytes(),
            },
        );
        Ok(payload)
    }

    /// Fallible blocking receive that additionally verifies the frame's
    /// ABFT checksum lane (when the sender stamped one via
    /// [`Comm::send_checked_laned`]) against the received data. Returns the
    /// payload together with the carried lane so reduction roots can fold
    /// contribution lanes into the lane of the reduced result.
    ///
    /// A lane mismatch *after* a clean CRC means the data was damaged
    /// before it was framed — retransmitting the same bytes cannot help —
    /// so it surfaces immediately as [`FaultError::Corruption`] rather
    /// than a NACK.
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
        self.fault_tick();
        let msg = self.recv_frame_verified(src, tag)?;
        if let Some(lane) = msg.lane {
            let Payload::C64(v) = &msg.payload;
            if !abft_verify_c64(v, lane, ABFT_TOL) {
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::CorruptRecv {
                        src,
                        tag,
                        attempt: 1,
                    }),
                );
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::CorruptionRetriesExhausted {
                        src,
                        tag,
                        attempts: 1,
                    }),
                );
                ffw_obs::counter("mpi.integrity.corrupt_recvs").add(1);
                ffw_obs::event(
                    "mpi.integrity.lane_mismatch",
                    &format!("rank {} <- rank {src} tag {tag:#x}", self.rank),
                );
                return Err(FaultError::Corruption {
                    rank: self.rank,
                    src,
                    tag,
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

    /// Blocking verified receive: pops frames via [`Comm::recv_msg_blocking`]
    /// and runs the CRC-32 integrity check on every delivery attempt. A
    /// corrupted attempt is NACKed — the frame is requeued for retransmit
    /// (the in-process model of asking the sender to resend) with bounded
    /// backoff under the launch's [`RetryPolicy`] — and when the budget is
    /// exhausted the receive fails with [`FaultError::Corruption`]. Every
    /// detection and retransmit is traced and mirrored to `ffw-obs`.
    fn recv_frame_verified(&self, src: usize, tag: u32) -> Result<Msg, FaultError> {
        let retry = self.shared.retry();
        loop {
            let mut msg = self.recv_msg_blocking(src, tag)?;
            let clean = if msg.corrupt_left > 0 {
                // This delivery attempt arrives bit-flipped: verify the
                // receiver would genuinely have seen the corruption.
                msg.corrupt_left -= 1;
                let corrupted = msg.payload.bit_flipped(msg.corrupt_seen);
                corrupted.crc32() == msg.crc
            } else {
                msg.payload.crc32() == msg.crc
            };
            if clean {
                return Ok(msg);
            }
            msg.corrupt_seen += 1;
            let attempt = msg.corrupt_seen;
            self.shared.trace(
                self.rank,
                Event::Fault(FaultEvent::CorruptRecv { src, tag, attempt }),
            );
            ffw_obs::counter("mpi.integrity.corrupt_recvs").add(1);
            if attempt > retry.max_retries {
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::CorruptionRetriesExhausted {
                        src,
                        tag,
                        attempts: attempt,
                    }),
                );
                ffw_obs::event(
                    "mpi.integrity.exhausted",
                    &format!(
                        "rank {} <- rank {src} tag {tag:#x} after {attempt} attempts",
                        self.rank
                    ),
                );
                return Err(FaultError::Corruption {
                    rank: self.rank,
                    src,
                    tag,
                    attempts: attempt,
                });
            }
            self.shared.trace(
                self.rank,
                Event::Fault(FaultEvent::RetransmitRequested { src, tag, attempt }),
            );
            ffw_obs::counter("mpi.integrity.retransmits").add(1);
            self.shared.mailboxes[src * self.shared.size + self.rank].requeue_front(msg);
            std::thread::sleep(Duration::from_millis(retry.backoff_ms(attempt - 1)));
        }
    }

    /// Blocking framed receive with the deadlock watchdog. The fast path
    /// (message already queued) touches only the mailbox lock; the slow path
    /// publishes a `RecvWait` state and waits with a timeout, diagnosing the
    /// global wait-for graph whenever the timeout fires — or at once when
    /// the source has panicked, which the launch signals on this mailbox.
    /// Returns an error if this wait can never be satisfied because the
    /// peer died.
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
            // Read under the queue lock: the panicking rank sets the flag
            // before it takes this lock to notify, so the flag is seen here
            // or the notify wakes the wait below.
            if !self.shared.panicked[src].load(Ordering::Acquire) {
                let result = mailbox.cond.wait_for(&mut q, self.shared.timeout);
                if !result.timed_out() {
                    continue;
                }
            }
            // The source panicked or the wait timed out. Diagnose without
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

/// How one rank of a [`Runtime::launch`] ended.
#[derive(Debug)]
pub enum RankOutcome<T> {
    /// The rank closure returned normally.
    Done(T),
    /// The rank was crashed by fault injection.
    Crashed(FaultError),
}

impl<T> RankOutcome<T> {
    /// The rank's result, if it completed.
    pub fn into_done(self) -> Option<T> {
        match self {
            RankOutcome::Done(value) => Some(value),
            RankOutcome::Crashed(_) => None,
        }
    }

    /// The crash that killed the rank, if any.
    pub fn crash(&self) -> Option<&FaultError> {
        match self {
            RankOutcome::Done(_) => None,
            RankOutcome::Crashed(e) => Some(e),
        }
    }
}

/// Result of a [`Runtime::launch`]: per-rank outcomes plus statistics.
pub struct Launch<T> {
    /// One outcome per rank, in rank order.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Communication statistics and event traces of the run.
    pub stats: RunStats,
}

impl<T> Launch<T> {
    /// Unwraps a launch that cannot have crashed ranks (no fault plan).
    fn into_unfaulted(self) -> (Vec<T>, RunStats) {
        let out = self
            .outcomes
            .into_iter()
            .map(|outcome| match outcome {
                RankOutcome::Done(value) => value,
                RankOutcome::Crashed(e) => {
                    panic!("ffw-mpi: rank crashed without a fault plan: {e}")
                }
            })
            .collect();
        (out, self.stats)
    }
}

/// Injected crashes unwind via `panic_any(FaultError)` and are caught by
/// the launch — they are data, not failures — so the default panic hook's
/// "thread panicked" report and backtrace are just noise. Replace the hook
/// once, process-wide, with one that stays silent for `FaultError` payloads
/// and delegates every other panic to the previous hook unchanged.
fn install_quiet_crash_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultError>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Builder for a verified multi-rank launch: programmatic watchdog timeout
/// and optional seeded fault injection.
///
/// ```
/// use ffw_mpi::Runtime;
/// use std::time::Duration;
///
/// let launch = Runtime::new(2)
///     .deadlock_timeout(Duration::from_millis(200))
///     .launch(|comm| comm.rank() * 10);
/// assert_eq!(launch.outcomes.len(), 2);
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

    /// Injects the given seeded fault plan into the launch.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Launches the ranks and collects per-rank [`RankOutcome`]s.
    ///
    /// Unlike [`run`], a rank crashed by fault injection becomes
    /// [`RankOutcome::Crashed`] instead of a re-raised panic, so drivers
    /// can observe which ranks died and degrade gracefully. Organic (non-
    /// injected) panics are still re-raised, lowest rank first. Post-run
    /// trace validation runs in a fault-tolerant mode when ranks died
    /// (message leaks are an expected consequence of a death) and in strict
    /// mode otherwise.
    pub fn launch<F, T>(self, f: F) -> Launch<T>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        let n_ranks = self.n_ranks;
        let timeout = resolve_timeout(self.timeout);
        if self.fault_plan.is_some() {
            install_quiet_crash_hook();
        }
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
            panicked: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
        });
        let results: Vec<Mutex<Option<T>>> = (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let crashes: Vec<Mutex<Option<FaultError>>> =
            (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

        // Each rank runs under catch_unwind so a panic marks it Panicked in
        // the registry instead of silently vanishing, and wakes every
        // receive waiting on it: peers blocked on it then get a diagnosed
        // dead-dependency error at once rather than after the watchdog
        // timeout. An injected crash (typed FaultError payload) becomes
        // data; any other panic is a genuine failure to re-raise.
        let run_rank = |rank: usize| {
            let comm = Comm {
                rank,
                shared: Arc::clone(&shared),
            };
            match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                Ok(value) => {
                    shared.set_state(rank, WaitState::Finished);
                    *results[rank].lock() = Some(value);
                }
                Err(payload) => {
                    shared.set_state(rank, WaitState::Panicked);
                    shared.panicked[rank].store(true, Ordering::Release);
                    // Notifying under each lock closes the race with a
                    // waiter between its flag check and its wait.
                    for dst in 0..n_ranks {
                        let mailbox = &shared.mailboxes[rank * n_ranks + dst];
                        let _guard = mailbox.queue.lock();
                        mailbox.cond.notify_all();
                    }
                    match payload.downcast::<FaultError>() {
                        Ok(fault) => *crashes[rank].lock() = Some(*fault),
                        Err(other) => panics.lock().push((rank, other)),
                    }
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
        // undelivered in the mailboxes. Runs in which a rank died (injected
        // crash, exhausted send retries, or a peer declared dead) use the
        // fault-tolerant validator: leaks are expected fallout of a death,
        // while self-sends and unresolved fault protocols remain hard errors.
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
        let any_crashed = crashes.iter().any(|c| c.lock().is_some());
        let any_death_event = traces.iter().flatten().any(|e| {
            matches!(
                e,
                Event::Fault(
                    FaultEvent::SendRetriesExhausted { .. }
                        | FaultEvent::PeerDeclaredDead { .. }
                        | FaultEvent::CorruptionRetriesExhausted { .. }
                        | FaultEvent::ComputeRetriesExhausted { .. }
                )
            )
        });
        let violations = if any_crashed || any_death_event {
            validate_traces_faulty(&traces, &leaked)
        } else {
            validate_traces(&traces, &leaked)
        };
        if !violations.is_empty() {
            panic!("{}", render_report(&violations));
        }

        let outcomes = results
            .into_iter()
            .zip(crashes)
            .enumerate()
            .map(
                |(rank, (result, crash))| match (result.into_inner(), crash.into_inner()) {
                    (Some(value), None) => RankOutcome::Done(value),
                    (None, Some(fault)) => RankOutcome::Crashed(fault),
                    _ => panic!("ffw-mpi: rank {rank} produced neither result nor crash"),
                },
            )
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
    Runtime::new(n_ranks).launch(f).into_unfaulted()
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
    Runtime::new(n_ranks)
        .deadlock_timeout(timeout)
        .launch(f)
        .into_unfaulted()
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
    fn injected_crash_becomes_outcome_and_peer_gets_typed_error() {
        let launch = Runtime::new(2)
            .deadlock_timeout(FAST)
            .fault_plan(FaultPlan::new().crash_at(1, 1))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv_checked(1, 5).map(|_| ())
                } else {
                    // First op: crashed by the plan before delivery.
                    comm.send_checked(0, 5, reals(&[1.0]))
                }
            });
        match launch.outcomes[1].crash() {
            Some(FaultError::InjectedCrash { rank: 1, op: 1 }) => {}
            other => panic!("expected injected crash on rank 1, got {other:?}"),
        }
        match &launch.outcomes[0] {
            RankOutcome::Done(Err(FaultError::PeerDead {
                rank: 0,
                peer: 1,
                detail,
            })) => {
                assert!(detail.contains("deadlock detected"), "got: {detail}");
            }
            other => panic!("expected typed PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn dropped_send_is_retried_and_delivered() {
        // Dropped twice, the retry budget is 3: delivery succeeds and the
        // attempts are visible in the trace.
        let launch = Runtime::new(2)
            .fault_plan(FaultPlan::new().drop_send(0, 1, 1, 2))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send_checked(1, 5, reals(&[42.0])).is_ok() as u64
                } else {
                    into_reals(comm.recv_checked(0, 5).expect("delivered"))[0] as u64
                }
            });
        let values: Vec<u64> = launch
            .outcomes
            .into_iter()
            .map(|o| o.into_done().expect("no rank crashed"))
            .collect();
        assert_eq!(values, vec![1, 42]);
        let drops = launch
            .stats
            .events(0)
            .iter()
            .filter(|e| matches!(e, Event::Fault(FaultEvent::SendDropped { .. })))
            .count();
        assert_eq!(drops, 2, "both forced drops must be traced");
    }

    #[test]
    fn exhausted_send_retries_surface_send_lost() {
        // Dropped more times than the retry budget allows: the sender gets
        // a typed SendLost, the receiver a typed PeerDead — no panics, no
        // hangs, and the post-run validation tolerates the fallout.
        let launch = Runtime::new(2)
            .deadlock_timeout(FAST)
            .fault_plan(FaultPlan::new().drop_send(0, 1, 1, 10))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send_checked(1, 5, reals(&[42.0])).map(|_| 0)
                } else {
                    comm.recv_checked(0, 5).map(|p| into_reals(p)[0] as u64)
                }
            });
        match &launch.outcomes[0] {
            RankOutcome::Done(Err(FaultError::SendLost {
                rank: 0,
                dst: 1,
                attempts,
                ..
            })) => assert_eq!(*attempts, 4, "initial try + 3 retries"),
            other => panic!("expected SendLost on rank 0, got {other:?}"),
        }
        match &launch.outcomes[1] {
            RankOutcome::Done(Err(FaultError::PeerDead { peer: 0, .. })) => {}
            other => panic!("expected PeerDead on rank 1, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_send_is_nacked_and_retransmitted() {
        // Corrupted twice, budget 3: the CRC rejects both corrupt delivery
        // attempts, the NACK/retransmit protocol recovers a clean copy, and
        // the delivered value is bit-exact.
        let launch = Runtime::new(2)
            .fault_plan(FaultPlan::new().corrupt_send(0, 1, 1, 2))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send_checked(1, 5, reals(&[3.25, -0.0, 1e-300]))
                        .map(|_| Vec::new())
                } else {
                    comm.recv_checked(0, 5).map(into_reals)
                }
            });
        match &launch.outcomes[1] {
            RankOutcome::Done(Ok(v)) => {
                assert_eq!(v.len(), 3);
                assert_eq!(v[0], 3.25);
                assert_eq!(v[1].to_bits(), (-0.0f64).to_bits(), "bit-exact delivery");
                assert_eq!(v[2], 1e-300);
            }
            other => panic!("expected recovered receive, got {other:?}"),
        }
        let events = launch.stats.events(1);
        let corrupt = events
            .iter()
            .filter(|e| matches!(e, Event::Fault(FaultEvent::CorruptRecv { .. })))
            .count();
        let nacks = events
            .iter()
            .filter(|e| matches!(e, Event::Fault(FaultEvent::RetransmitRequested { .. })))
            .count();
        assert_eq!(corrupt, 2, "both corrupt attempts must be detected");
        assert_eq!(nacks, 2, "each detection must NACK for a retransmit");
    }

    #[test]
    fn persistent_corruption_surfaces_typed_error() {
        // Corrupted past the retry budget: the receiver gets a typed
        // Corruption error naming edge, tag and attempts — no hang, no
        // silent wrong answer.
        let launch = Runtime::new(2)
            .deadlock_timeout(FAST)
            .fault_plan(FaultPlan::new().corrupt_send(0, 1, 1, 10))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send_checked(1, 5, reals(&[42.0])).map(|_| 0)
                } else {
                    comm.recv_checked(0, 5).map(|p| into_reals(p)[0] as u64)
                }
            });
        match &launch.outcomes[1] {
            RankOutcome::Done(Err(FaultError::Corruption {
                rank: 1,
                src: 0,
                tag: 5,
                attempts,
            })) => assert_eq!(*attempts, 4, "initial receive + 3 retransmits"),
            other => panic!("expected Corruption on rank 1, got {other:?}"),
        }
        assert!(launch.stats.events(1).iter().any(|e| matches!(
            e,
            Event::Fault(FaultEvent::CorruptionRetriesExhausted { src: 0, tag: 5, .. })
        )));
    }

    #[test]
    fn a_dead_peer_is_reported_without_waiting_for_the_watchdog() {
        // Rank 1 crashes at its first op while rank 0 blocks in a receive.
        // The deadlock watchdog alone would need the full 30 s timeout; the
        // panicking rank's wake-up must surface the death in well under that.
        let t0 = ffw_obs::monotonic_ns();
        let launch = Runtime::new(2)
            .deadlock_timeout(Duration::from_secs(30))
            .fault_plan(FaultPlan::new().crash_at(1, 1))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv_checked(1, 5).map(|_| ())
                } else {
                    comm.send_checked(0, 5, reals(&[1.0]))
                }
            });
        let elapsed_ms = (ffw_obs::monotonic_ns() - t0) / 1_000_000;
        assert!(
            elapsed_ms < 5_000,
            "dead-peer detection took {elapsed_ms} ms — watchdog-timeout latency"
        );
        match &launch.outcomes[0] {
            RankOutcome::Done(Err(FaultError::PeerDead { peer: 1, .. })) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn a_receive_begun_after_its_source_panicked_fails_at_once() {
        // Rank 1 delivers one message, then crashes at its second op. Rank
        // 0 takes the message and starts its next receive from rank 1 only
        // after the crash: that wait must see the panic before it sleeps,
        // not after the 30 s watchdog timeout.
        let t0 = ffw_obs::monotonic_ns();
        let launch = Runtime::new(2)
            .deadlock_timeout(Duration::from_secs(30))
            .fault_plan(FaultPlan::new().crash_at(1, 2))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv_checked(1, 5)?;
                    std::thread::sleep(Duration::from_millis(300));
                    comm.recv_checked(1, 6).map(|_| ())
                } else {
                    comm.send_checked(0, 5, reals(&[1.0]))?;
                    comm.send_checked(0, 6, reals(&[2.0]))
                }
            });
        let elapsed_ms = (ffw_obs::monotonic_ns() - t0) / 1_000_000;
        assert!(
            elapsed_ms < 5_000,
            "a receive after the panic took {elapsed_ms} ms — watchdog-timeout latency"
        );
        match launch.outcomes[1].crash() {
            Some(FaultError::InjectedCrash { rank: 1, op: 2 }) => {}
            other => panic!("expected injected crash at op 2 on rank 1, got {other:?}"),
        }
        match &launch.outcomes[0] {
            RankOutcome::Done(Err(FaultError::PeerDead { peer: 1, .. })) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn straggler_delays_but_does_not_change_results() {
        // Every rank's value reaches rank 0, which sends the sum back.
        let body = |comm: &Comm| {
            let mine = comm.rank() as f64;
            if comm.rank() == 0 {
                let mut sum = mine;
                for src in 1..comm.size() {
                    sum += into_reals(recv(comm, src, 3))[0];
                }
                for dst in 1..comm.size() {
                    send(comm, dst, 4, reals(&[sum]));
                }
                sum
            } else {
                send(comm, 0, 3, reals(&[mine]));
                into_reals(recv(comm, 0, 4))[0]
            }
        };
        let (clean, _) = run(3, |comm| body(&comm));
        let launch = Runtime::new(3)
            .fault_plan(FaultPlan::new().straggler(1, 1, 4, 2))
            .launch(|comm| body(&comm));
        let slowed: Vec<f64> = launch
            .outcomes
            .into_iter()
            .map(|o| o.into_done().expect("no rank crashed"))
            .collect();
        assert_eq!(clean, slowed);
        assert!(launch
            .stats
            .events(1)
            .iter()
            .any(|e| matches!(e, Event::Fault(FaultEvent::Straggle { .. }))));
    }
}

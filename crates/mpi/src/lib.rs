//! # ffw-mpi
//!
//! An in-process message-passing runtime standing in for MPI in the paper's
//! two-dimensional parallelization (Section IV). Ranks are OS threads; each
//! directed rank pair has a tag-matched mailbox; collectives are built on the
//! point-to-point layer. Every message is accounted per edge (count + bytes),
//! so the distributed solver can report exactly the communication volumes the
//! performance model consumes, and ablations can show the effect of the
//! paper's buffer-aggregation optimization (Section IV-B).
//!
//! Semantics match the subset of MPI the paper's solver needs:
//! * `send` is buffered and non-blocking (like `MPI_Isend` + eager protocol);
//! * `recv(src, tag)` blocks until a matching message arrives, with
//!   out-of-order messages held back per (source, tag);
//! * `barrier`, `allreduce`, `gather`/`broadcast` collectives.
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
//!   [`ffw_check::Event`] trace of its user-level sends, receives, polls
//!   (coalesced), and collectives. When [`run`] exits normally, the traces
//!   plus any undelivered messages are handed to
//!   [`ffw_check::validate_traces`]; message leaks, self-sends, reserved-tag
//!   misuse, and cross-rank collective-ordering mismatches fail the run with
//!   a report.
//!
//! A panicking rank is marked [`ffw_check::WaitState::Panicked`] rather than
//! silently disappearing, so peers blocked on it get a diagnosed error
//! instead of a hang; [`run`] then re-raises the lowest-ranked panic.
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

#![warn(missing_docs)]

use ffw_check::trace::{render_report, CollectiveKind, Event, LeakedMessage};
use ffw_check::waitgraph::WaitState;
use ffw_check::{diagnose_deadlock, validate_traces, validate_traces_faulty, DeadlockReport};
use ffw_fault::{
    abft_lane_c64, abft_lane_f64, abft_verify_c64, abft_verify_f64, crc32_c64, crc32_f64,
    crc32_u64, ActiveFaults, OpAction, PhiLite, DEFAULT_PHI_THRESHOLD,
};
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

/// Message payloads: the solver moves complex fields, real scalars for
/// reductions, and occasional integer bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Complex doubles as `(re, im)` pairs.
    C64(Vec<(f64, f64)>),
    /// Real doubles.
    F64(Vec<f64>),
    /// Unsigned 64-bit integers.
    U64(Vec<u64>),
}

impl Payload {
    /// Payload size in bytes (as it would travel on a wire).
    pub fn n_bytes(&self) -> u64 {
        match self {
            Payload::C64(v) => 16 * v.len() as u64,
            Payload::F64(v) => 8 * v.len() as u64,
            Payload::U64(v) => 8 * v.len() as u64,
        }
    }

    /// Unwraps a complex payload.
    pub fn into_c64(self) -> Vec<(f64, f64)> {
        match self {
            Payload::C64(v) => v,
            other => panic!("expected C64 payload, got {other:?}"),
        }
    }

    /// Unwraps a real payload.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwraps an integer payload.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// CRC-32 of the payload's raw bit patterns (the integrity frame every
    /// message travels with).
    pub fn crc32(&self) -> u32 {
        match self {
            Payload::C64(v) => crc32_c64(v),
            Payload::F64(v) => crc32_f64(v),
            Payload::U64(v) => crc32_u64(v),
        }
    }

    /// A copy with one payload bit flipped (deterministically chosen from
    /// `salt`), used by fault injection to model in-flight corruption. An
    /// empty payload has no bits to flip and is returned unchanged.
    fn bit_flipped(&self, salt: u32) -> Payload {
        let flip = |bits: u64| bits ^ (1u64 << (11 + (salt as u64 % 40)));
        match self {
            Payload::C64(v) => {
                let mut v = v.clone();
                let idx = salt as usize % v.len().max(1);
                if let Some(first) = v.get_mut(idx) {
                    first.0 = f64::from_bits(flip(first.0.to_bits()));
                }
                Payload::C64(v)
            }
            Payload::F64(v) => {
                let mut v = v.clone();
                let idx = salt as usize % v.len().max(1);
                if let Some(first) = v.get_mut(idx) {
                    *first = f64::from_bits(flip(first.to_bits()));
                }
                Payload::F64(v)
            }
            Payload::U64(v) => {
                let mut v = v.clone();
                let idx = salt as usize % v.len().max(1);
                if let Some(first) = v.get_mut(idx) {
                    *first = flip(*first);
                }
                Payload::U64(v)
            }
        }
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

/// Diagnosable replacement for `std::sync::Barrier`: waiters can time out,
/// inspect the global state, and resume — and the generation they are stuck
/// on is visible to the deadlock analysis.
struct Barrier {
    state: Mutex<BarrierState>,
    cond: Condvar,
}

struct BarrierState {
    generation: u64,
    arrived: usize,
}

/// Per-launch heartbeat machinery: one companion beater thread per rank
/// stamps a shared timestamp while the rank closure runs; a monitor thread
/// maintains a [`PhiLite`] suspicion score per rank and, when a panicked
/// rank's beats stop, marks it suspect and wakes every blocked waiter so
/// dead-peer detection costs O(heartbeat interval), not O(deadlock timeout).
struct Heartbeat {
    interval: Duration,
    /// beats[r] = monotonic ns of rank r's most recent beat.
    beats: Vec<AtomicU64>,
    /// suspects[r] = phi (in thousandths) at detection time; 0 = alive.
    suspects: Vec<AtomicU64>,
    /// rank_done[r] set when rank r's closure returned or panicked; stops
    /// its beater within one condvar wake.
    rank_done: Vec<AtomicBool>,
    /// Launch-teardown signal for the beater and monitor threads.
    shutdown: Mutex<bool>,
    shutdown_cond: Condvar,
}

impl Heartbeat {
    fn new(n_ranks: usize, interval: Duration) -> Self {
        let now = ffw_obs::monotonic_ns();
        Heartbeat {
            interval,
            beats: (0..n_ranks).map(|_| AtomicU64::new(now)).collect(),
            suspects: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            rank_done: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
            shutdown: Mutex::new(false),
            shutdown_cond: Condvar::new(),
        }
    }

    /// phi (in thousandths) at which `rank` was suspected, if it was.
    fn suspect_phi_milli(&self, rank: usize) -> Option<u64> {
        match self.suspects[rank].load(Ordering::SeqCst) {
            0 => None,
            phi => Some(phi),
        }
    }
}

struct Shared {
    size: usize,
    /// mailboxes[src * size + dst]
    mailboxes: Vec<Mailbox>,
    stats: CommStats,
    barrier: Barrier,
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
    /// Heartbeat failure detection (absent for single-rank launches or when
    /// explicitly disabled).
    heartbeat: Option<Heartbeat>,
}

impl Shared {
    fn set_state(&self, rank: usize, state: WaitState) {
        self.registry.lock()[rank] = state;
    }

    /// The retry policy active for this launch (default when no fault plan).
    fn retry(&self) -> RetryPolicy {
        self.faults.as_ref().map(|f| f.retry()).unwrap_or_default()
    }

    /// phi-milli at which `peer` was suspected by the heartbeat monitor.
    fn hb_suspect(&self, peer: usize) -> Option<u64> {
        self.heartbeat.as_ref()?.suspect_phi_milli(peer)
    }

    /// True when any rank is currently heartbeat-suspected.
    fn hb_any_suspect(&self) -> bool {
        self.heartbeat
            .as_ref()
            .is_some_and(|hb| (0..self.size).any(|r| hb.suspect_phi_milli(r).is_some()))
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
    ///   finished or panicked and can never satisfy it. The caller turns
    ///   this into a typed error value (checked receives) or a panic
    ///   (legacy receives, collectives).
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
        match snapshot[rank] {
            WaitState::RecvWait { src, tag } => {
                let dead = matches!(snapshot[src], WaitState::Finished | WaitState::Panicked);
                let queued = self.mailboxes[src * self.size + rank].has_matching(tag);
                (dead && !queued).then_some(src)
            }
            WaitState::BarrierWait { generation } => {
                snapshot.iter().enumerate().find_map(|(other, state)| {
                    if other == rank {
                        return None;
                    }
                    let arrived = matches!(
                        state,
                        WaitState::BarrierWait { generation: g } if *g == generation
                    );
                    if arrived {
                        return None;
                    }
                    matches!(state, WaitState::Finished | WaitState::Panicked).then_some(other)
                })
            }
            _ => None,
        }
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

/// Tags with the high bit set are reserved for collectives.
const COLLECTIVE_TAG: u32 = 0x8000_0000;

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

    /// Buffered, non-blocking send. User tags must not set the high bit.
    ///
    /// Panics if fault injection makes the send unrecoverable; fault-aware
    /// callers use [`Comm::send_checked`] instead.
    pub fn send(&self, dst: usize, tag: u32, payload: Payload) {
        if let Err(e) = self.send_checked(dst, tag, payload) {
            panic!("ffw-mpi: {e}");
        }
    }

    /// Fallible send: retries delivery with bounded exponential backoff when
    /// fault injection drops the message, and returns
    /// [`FaultError::SendLost`] (declaring `dst` dead) once the retry
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
        assert_eq!(
            tag & COLLECTIVE_TAG,
            0,
            "send: user tag {tag:#x} sets the reserved collective bit"
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

    fn send_raw(&self, dst: usize, tag: u32, payload: Payload) {
        self.send_frame(dst, tag, payload, None, 0);
    }

    /// Blocking receive of the message with the given source and tag.
    ///
    /// Panics (with the watchdog's report) if `src` dies before sending;
    /// fault-aware callers use [`Comm::recv_checked`] instead.
    pub fn recv(&self, src: usize, tag: u32) -> Payload {
        match self.recv_checked(src, tag) {
            Ok(payload) => payload,
            Err(e) => panic!("ffw-mpi: {e}"),
        }
    }

    /// Fallible blocking receive: returns [`FaultError::PeerDead`] (with
    /// the watchdog's wait-for-graph report) if `src` finishes or panics
    /// without having sent a matching message, instead of panicking.
    pub fn recv_checked(&self, src: usize, tag: u32) -> Result<Payload, FaultError> {
        assert!(
            src < self.shared.size,
            "recv: invalid source rank {src} (communicator has {} ranks)",
            self.shared.size
        );
        assert_eq!(
            tag & COLLECTIVE_TAG,
            0,
            "recv: user tag {tag:#x} sets the reserved collective bit"
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
    /// [`Comm::send_checked_laned`]) against the received data, with the
    /// same tolerance the collectives use. Returns the payload together
    /// with the carried lane so reduction roots can fold contribution
    /// lanes into the lane of the reduced result.
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
        assert_eq!(
            tag & COLLECTIVE_TAG,
            0,
            "recv: user tag {tag:#x} sets the reserved collective bit"
        );
        self.fault_tick();
        let msg = self.recv_frame_verified(src, tag)?;
        if let Some(lane) = msg.lane {
            let ok = match &msg.payload {
                Payload::C64(v) => abft_verify_c64(v, lane, ABFT_TOL),
                Payload::F64(v) => abft_verify_f64(v, lane.0, ABFT_TOL),
                // Lanes are floating-point sums; integer payloads carry
                // none worth verifying beyond the CRC.
                Payload::U64(_) => true,
            };
            if !ok {
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

    /// Infallible receive for the collective implementations: a dead peer
    /// mid-collective is not recoverable in-band, so it panics with the
    /// watchdog report.
    fn recv_raw(&self, src: usize, tag: u32) -> Payload {
        self.recv_frame_raw(src, tag).payload
    }

    /// Infallible framed receive (payload + lane) for collectives.
    fn recv_frame_raw(&self, src: usize, tag: u32) -> Msg {
        match self.recv_frame_verified(src, tag) {
            Ok(msg) => msg,
            Err(e) => panic!("ffw-mpi: {e}"),
        }
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
    /// global wait-for graph whenever the timeout fires — or as soon as the
    /// heartbeat monitor suspects the source, which wakes this wait early so
    /// a dead peer is detected in O(heartbeat interval). Returns an error if
    /// this wait can never be satisfied because the peer died.
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
            let result = mailbox.cond.wait_for(&mut q, self.shared.timeout);
            if result.timed_out() || self.shared.hb_suspect(src).is_some() {
                // Diagnose without holding the queue lock (the analysis
                // inspects other mailboxes; never hold two mailbox locks).
                drop(q);
                if let Err(e) = self.shared.watchdog_poll(self.rank) {
                    self.shared.set_state(self.rank, WaitState::Running);
                    if let FaultError::PeerDead { peer, .. } = &e {
                        if let Some(phi_milli) = self.shared.hb_suspect(*peer) {
                            self.shared.trace(
                                self.rank,
                                Event::Fault(FaultEvent::HeartbeatSuspect {
                                    peer: *peer,
                                    phi_milli,
                                }),
                            );
                        }
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

    /// Non-blocking receive: returns `None` if no matching message has
    /// arrived yet (used by the communication/computation overlap pipeline).
    pub fn try_recv(&self, src: usize, tag: u32) -> Option<Payload> {
        assert!(
            src < self.shared.size,
            "try_recv: invalid source rank {src} (communicator has {} ranks)",
            self.shared.size
        );
        assert_eq!(
            tag & COLLECTIVE_TAG,
            0,
            "try_recv: user tag {tag:#x} sets the reserved collective bit"
        );
        self.fault_tick();
        let mailbox = &self.shared.mailboxes[src * self.shared.size + self.rank];
        let mut got = mailbox.try_pop_matching(tag);
        if let Some(msg) = &mut got {
            let clean = if msg.corrupt_left > 0 {
                msg.corrupt_left -= 1;
                msg.payload.bit_flipped(msg.corrupt_seen).crc32() == msg.crc
            } else {
                msg.payload.crc32() == msg.crc
            };
            if !clean {
                // NACK and requeue: the poller's next call is the retry, so
                // the retransmit budget is the poll loop itself (bounded by
                // the scheduled corruption count, which on_send fixed).
                msg.corrupt_seen += 1;
                let attempt = msg.corrupt_seen;
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::CorruptRecv { src, tag, attempt }),
                );
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::RetransmitRequested { src, tag, attempt }),
                );
                ffw_obs::counter("mpi.integrity.corrupt_recvs").add(1);
                ffw_obs::counter("mpi.integrity.retransmits").add(1);
                mailbox.requeue_front(got.take().expect("corrupt frame present"));
            }
        }
        let got = got.map(|m| m.payload);
        let mut trace = self.shared.traces[self.rank].lock();
        match &got {
            Some(payload) => trace.push(Event::TryRecvHit {
                src,
                tag,
                bytes: payload.n_bytes(),
            }),
            None => {
                // Coalesce consecutive misses on the same edge so polling
                // loops cannot grow the trace without bound.
                if let Some(Event::TryRecvMiss {
                    src: s,
                    tag: t,
                    polls,
                }) = trace.last_mut()
                {
                    if *s == src && *t == tag {
                        *polls += 1;
                        return got;
                    }
                }
                trace.push(Event::TryRecvMiss { src, tag, polls: 1 });
            }
        }
        drop(trace);
        got
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        self.fault_tick();
        self.shared.trace(
            self.rank,
            Event::Collective {
                kind: CollectiveKind::Barrier,
                root: 0,
            },
        );
        let barrier = &self.shared.barrier;
        let mut st = barrier.state.lock();
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.shared.size {
            st.arrived = 0;
            st.generation += 1;
            drop(st);
            barrier.cond.notify_all();
            return;
        }
        self.shared
            .set_state(self.rank, WaitState::BarrierWait { generation });
        loop {
            if st.generation != generation {
                break;
            }
            let result = barrier.cond.wait_for(&mut st, self.shared.timeout);
            if (result.timed_out() || self.shared.hb_any_suspect()) && st.generation == generation {
                drop(st);
                // A dead peer can never arrive at the barrier: that is not
                // recoverable in-band, so surface it as a panic.
                if let Err(e) = self.shared.watchdog_poll(self.rank) {
                    panic!("ffw-mpi: {e}");
                }
                st = barrier.state.lock();
            }
        }
        drop(st);
        self.shared.set_state(self.rank, WaitState::Running);
    }

    /// Panics with a typed corruption error when an ABFT lane disagrees
    /// with the data it arrived with. The per-message CRC already rejects
    /// in-flight bit flips, so a lane mismatch means the data was damaged
    /// *between* checksum and reduction — a logic fault, not recoverable by
    /// retransmit.
    fn abft_panic(&self, src: usize, tag: u32) -> ! {
        panic!(
            "ffw-mpi: ABFT checksum-lane mismatch — {}",
            FaultError::Corruption {
                rank: self.rank,
                src,
                tag,
                attempts: 1,
            }
        );
    }

    /// Element-wise sum-allreduce over complex data (in place; all ranks end
    /// with the global sum). Root-based: gather to rank 0, reduce, broadcast.
    /// Every hop carries an ABFT checksum lane (the element sum) that the
    /// receiving side re-derives and verifies.
    pub fn allreduce_sum_c64(&self, data: &mut [(f64, f64)]) {
        self.trace_collective(CollectiveKind::AllreduceSumC64, 0);
        if self.rank == 0 {
            for src in 1..self.size() {
                let frame = self.recv_frame_raw(src, COLLECTIVE_TAG | 1);
                let part = frame.payload.into_c64();
                assert_eq!(
                    part.len(),
                    data.len(),
                    "allreduce_sum_c64: rank {src} contributed {} elements but rank 0 \
                     holds {} — all ranks must pass equal-length buffers",
                    part.len(),
                    data.len()
                );
                if let Some(lane) = frame.lane {
                    if !abft_verify_c64(&part, lane, ABFT_TOL) {
                        self.abft_panic(src, COLLECTIVE_TAG | 1);
                    }
                }
                for (d, p) in data.iter_mut().zip(part) {
                    d.0 += p.0;
                    d.1 += p.1;
                }
            }
            let lane = abft_lane_c64(data);
            for dst in 1..self.size() {
                self.send_frame(
                    dst,
                    COLLECTIVE_TAG | 2,
                    Payload::C64(data.to_vec()),
                    Some(lane),
                    0,
                );
            }
        } else {
            let lane = abft_lane_c64(data);
            self.send_frame(
                0,
                COLLECTIVE_TAG | 1,
                Payload::C64(data.to_vec()),
                Some(lane),
                0,
            );
            let frame = self.recv_frame_raw(0, COLLECTIVE_TAG | 2);
            let result = frame.payload.into_c64();
            if let Some(lane) = frame.lane {
                if !abft_verify_c64(&result, lane, ABFT_TOL) {
                    self.abft_panic(0, COLLECTIVE_TAG | 2);
                }
            }
            data.copy_from_slice(&result);
        }
    }

    /// Sum-allreduce over real data, ABFT-lane-verified like
    /// [`Comm::allreduce_sum_c64`].
    pub fn allreduce_sum_f64(&self, data: &mut [f64]) {
        self.trace_collective(CollectiveKind::AllreduceSumF64, 0);
        if self.rank == 0 {
            for src in 1..self.size() {
                let frame = self.recv_frame_raw(src, COLLECTIVE_TAG | 3);
                let part = frame.payload.into_f64();
                assert_eq!(
                    part.len(),
                    data.len(),
                    "allreduce_sum_f64: rank {src} contributed {} elements but rank 0 \
                     holds {} — all ranks must pass equal-length buffers",
                    part.len(),
                    data.len()
                );
                if let Some((lane, _)) = frame.lane {
                    if !abft_verify_f64(&part, lane, ABFT_TOL) {
                        self.abft_panic(src, COLLECTIVE_TAG | 3);
                    }
                }
                for (d, p) in data.iter_mut().zip(part) {
                    *d += p;
                }
            }
            let lane = abft_lane_f64(data);
            for dst in 1..self.size() {
                self.send_frame(
                    dst,
                    COLLECTIVE_TAG | 4,
                    Payload::F64(data.to_vec()),
                    Some((lane, 0.0)),
                    0,
                );
            }
        } else {
            let lane = abft_lane_f64(data);
            self.send_frame(
                0,
                COLLECTIVE_TAG | 3,
                Payload::F64(data.to_vec()),
                Some((lane, 0.0)),
                0,
            );
            let frame = self.recv_frame_raw(0, COLLECTIVE_TAG | 4);
            let result = frame.payload.into_f64();
            if let Some((lane, _)) = frame.lane {
                if !abft_verify_f64(&result, lane, ABFT_TOL) {
                    self.abft_panic(0, COLLECTIVE_TAG | 4);
                }
            }
            data.copy_from_slice(&result);
        }
    }

    /// Max-allreduce over a single value.
    pub fn allreduce_max_f64(&self, value: f64) -> f64 {
        self.trace_collective(CollectiveKind::AllreduceMaxF64, 0);
        let mut buf = [value];
        if self.rank == 0 {
            for src in 1..self.size() {
                let part = self.recv_raw(src, COLLECTIVE_TAG | 5).into_f64();
                buf[0] = buf[0].max(part[0]);
            }
            for dst in 1..self.size() {
                self.send_raw(dst, COLLECTIVE_TAG | 6, Payload::F64(buf.to_vec()));
            }
        } else {
            self.send_raw(0, COLLECTIVE_TAG | 5, Payload::F64(buf.to_vec()));
            buf[0] = self.recv_raw(0, COLLECTIVE_TAG | 6).into_f64()[0];
        }
        buf[0]
    }

    /// Broadcast from `root` to all ranks (in place).
    pub fn broadcast_c64(&self, root: usize, data: &mut Vec<(f64, f64)>) {
        assert!(
            root < self.shared.size,
            "broadcast_c64: root {root} out of range (communicator has {} ranks)",
            self.shared.size
        );
        self.trace_collective(CollectiveKind::BroadcastC64, root);
        if self.rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_raw(dst, COLLECTIVE_TAG | 7, Payload::C64(data.clone()));
                }
            }
        } else {
            *data = self.recv_raw(root, COLLECTIVE_TAG | 7).into_c64();
        }
    }

    /// Gathers variable-length complex chunks to `root`; returns
    /// `Some(chunks by rank)` on the root, `None` elsewhere.
    pub fn gather_c64(&self, root: usize, chunk: &[(f64, f64)]) -> Option<Vec<Vec<(f64, f64)>>> {
        assert!(
            root < self.shared.size,
            "gather_c64: root {root} out of range (communicator has {} ranks)",
            self.shared.size
        );
        self.trace_collective(CollectiveKind::GatherC64, root);
        if self.rank == root {
            let mut out = vec![Vec::new(); self.size()];
            out[root] = chunk.to_vec();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_raw(src, COLLECTIVE_TAG | 8).into_c64();
                }
            }
            Some(out)
        } else {
            self.send_raw(root, COLLECTIVE_TAG | 8, Payload::C64(chunk.to_vec()));
            None
        }
    }

    fn trace_collective(&self, kind: CollectiveKind, root: usize) {
        // Every collective counts as one operation for fault injection.
        self.fault_tick();
        self.shared
            .trace(self.rank, Event::Collective { kind, root });
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

    /// Heartbeat evidence: the ranks the phi-accrual monitor suspected
    /// (beats stopped while the rank was panicked), with the suspicion
    /// score at detection time. Empty when the heartbeat was disabled or
    /// no rank died. Recovery drivers use this as *primary* evidence when
    /// attributing deaths.
    pub fn heartbeat_suspects(&self) -> Vec<(usize, f64)> {
        let Some(hb) = &self.inner.heartbeat else {
            return Vec::new();
        };
        (0..self.inner.size)
            .filter_map(|r| hb.suspect_phi_milli(r).map(|phi| (r, phi as f64 / 1000.0)))
            .collect()
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

/// Resolves the heartbeat interval. Precedence (highest first): the
/// `FFW_HEARTBEAT_MS` environment variable (0 disables), the programmatic
/// value from [`Runtime::heartbeat_interval`] (`Duration::ZERO` disables),
/// the 5 ms default. `None` means "no heartbeat".
fn resolve_heartbeat(programmatic: Option<Duration>) -> Option<Duration> {
    match std::env::var("FFW_HEARTBEAT_MS") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => panic!(
                "FFW_HEARTBEAT_MS={raw:?} is invalid: expected a non-negative \
                 integer number of milliseconds"
            ),
        },
        Err(_) => {
            let interval = programmatic.unwrap_or(Duration::from_millis(5));
            (!interval.is_zero()).then_some(interval)
        }
    }
}

/// Body of a per-rank companion beater thread: stamps the rank's beat
/// timestamp every interval until the rank's closure ends (or the launch
/// tears down). Beats come from a companion thread rather than the rank
/// body so a rank blocked in a long receive or compute keeps beating —
/// suspicion can only ever mean the rank actually died.
fn heartbeat_beater(shared: Arc<Shared>, rank: usize) {
    let hb = shared.heartbeat.as_ref().expect("beater without heartbeat");
    loop {
        hb.beats[rank].store(ffw_obs::monotonic_ns(), Ordering::SeqCst);
        let mut done = hb.shutdown.lock();
        if *done || hb.rank_done[rank].load(Ordering::SeqCst) {
            break;
        }
        let _ = hb.shutdown_cond.wait_for(&mut done, hb.interval);
        if *done || hb.rank_done[rank].load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Body of the heartbeat monitor thread: maintains a [`PhiLite`] suspicion
/// score per rank from the beat timestamps; when a panicked rank's score
/// crosses [`DEFAULT_PHI_THRESHOLD`], marks it suspect and wakes every
/// blocked waiter (mailboxes and barrier) so dead-peer detection costs
/// O(heartbeat interval) instead of O(deadlock timeout).
fn heartbeat_monitor(shared: Arc<Shared>) {
    let hb = shared
        .heartbeat
        .as_ref()
        .expect("monitor without heartbeat");
    let interval_ns = hb.interval.as_nanos() as u64;
    let start = ffw_obs::monotonic_ns();
    let mut phis: Vec<PhiLite> = (0..shared.size)
        .map(|_| PhiLite::new(interval_ns, start))
        .collect();
    let mut last_seen: Vec<u64> = hb.beats.iter().map(|b| b.load(Ordering::SeqCst)).collect();
    loop {
        {
            let mut done = hb.shutdown.lock();
            if *done {
                break;
            }
            let _ = hb.shutdown_cond.wait_for(&mut done, hb.interval);
            if *done {
                break;
            }
        }
        let now = ffw_obs::monotonic_ns();
        for rank in 0..shared.size {
            if hb.suspects[rank].load(Ordering::SeqCst) != 0 {
                continue;
            }
            let beat = hb.beats[rank].load(Ordering::SeqCst);
            if beat != last_seen[rank] {
                last_seen[rank] = beat;
                phis[rank].beat(beat);
                continue;
            }
            let phi = phis[rank].phi(now);
            // Beats stop for both panicked and cleanly-finished ranks; only
            // a panicked rank is *evidence of death* (a finished rank that
            // a peer still waits on is a protocol bug the slow watchdog
            // diagnoses). The phi score supplies the detection timing.
            let panicked = matches!(shared.registry.lock()[rank], WaitState::Panicked);
            if phi > DEFAULT_PHI_THRESHOLD && panicked {
                let phi_milli = ((phi * 1000.0) as u64).max(1);
                hb.suspects[rank].store(phi_milli, Ordering::SeqCst);
                ffw_obs::event(
                    "mpi.heartbeat.suspect",
                    &format!("rank {rank} suspected at phi {phi:.1}"),
                );
                // Wake every blocked waiter. Notifying under each lock
                // closes the race with a waiter that is between its
                // predicate check and its wait.
                for mailbox in &shared.mailboxes {
                    let _guard = mailbox.queue.lock();
                    mailbox.cond.notify_all();
                }
                let _guard = shared.barrier.state.lock();
                shared.barrier.cond.notify_all();
            }
        }
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
    heartbeat: Option<Duration>,
}

impl Runtime {
    /// A runtime for `n_ranks` ranks with default settings.
    pub fn new(n_ranks: usize) -> Self {
        Runtime {
            n_ranks,
            timeout: None,
            fault_plan: None,
            heartbeat: None,
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

    /// Sets the heartbeat interval for failure detection (default 5 ms;
    /// `Duration::ZERO` disables the heartbeat). The `FFW_HEARTBEAT_MS`
    /// environment variable, if set, takes precedence (0 disables).
    /// Single-rank launches never run a heartbeat.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Launches the ranks and collects per-rank [`RankOutcome`]s.
    ///
    /// Unlike [`run`], a rank crashed by fault injection becomes
    /// [`RankOutcome::Crashed`] instead of a re-raised panic, so drivers
    /// can observe which ranks died and degrade gracefully. Organic (non-
    /// injected) panics are still re-raised, lowest rank first. Post-run
    /// trace validation runs in a fault-tolerant mode when ranks died
    /// (message leaks and truncated collective sequences are expected
    /// consequences of a death) and in strict mode otherwise.
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
            barrier: Barrier {
                state: Mutex::new(BarrierState {
                    generation: 0,
                    arrived: 0,
                }),
                cond: Condvar::new(),
            },
            registry: Mutex::new(vec![WaitState::Running; n_ranks]),
            traces: (0..n_ranks).map(|_| Mutex::new(Vec::new())).collect(),
            timeout,
            verdict: Mutex::new(None),
            faults: self.fault_plan.map(|plan| plan.activate(n_ranks)),
            heartbeat: (n_ranks >= 2)
                .then(|| resolve_heartbeat(self.heartbeat))
                .flatten()
                .map(|interval| Heartbeat::new(n_ranks, interval)),
        });
        // Companion beater threads + the phi-accrual monitor. These are
        // plain (non-scoped) threads over Arc clones; they are signalled
        // and joined before `launch` returns.
        let mut hb_threads = Vec::new();
        if shared.heartbeat.is_some() {
            for rank in 0..n_ranks {
                let sh = Arc::clone(&shared);
                hb_threads.push(
                    std::thread::Builder::new()
                        .name(format!("ffw-hb-beat-{rank}"))
                        .spawn(move || heartbeat_beater(sh, rank))
                        .expect("spawn heartbeat beater"),
                );
            }
            let sh = Arc::clone(&shared);
            hb_threads.push(
                std::thread::Builder::new()
                    .name("ffw-hb-monitor".into())
                    .spawn(move || heartbeat_monitor(sh))
                    .expect("spawn heartbeat monitor"),
            );
        }
        let results: Vec<Mutex<Option<T>>> = (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let crashes: Vec<Mutex<Option<FaultError>>> =
            (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

        // Each rank runs under catch_unwind so a panic marks it Panicked in
        // the registry instead of silently vanishing: peers blocked on it
        // then get a diagnosed dead-dependency error rather than hanging
        // forever. An injected crash (typed FaultError payload) becomes
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
                    match payload.downcast::<FaultError>() {
                        Ok(fault) => *crashes[rank].lock() = Some(*fault),
                        Err(other) => panics.lock().push((rank, other)),
                    }
                }
            }
            // The registry state is set before beats stop, so by the time
            // the monitor suspects this rank its Finished/Panicked verdict
            // is already visible.
            if let Some(hb) = &shared.heartbeat {
                hb.rank_done[rank].store(true, Ordering::SeqCst);
                hb.shutdown_cond.notify_all();
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

        // Tear down the heartbeat machinery before validation.
        if let Some(hb) = &shared.heartbeat {
            *hb.shutdown.lock() = true;
            hb.shutdown_cond.notify_all();
        }
        for handle in hb_threads {
            handle.join().expect("heartbeat thread panicked");
        }

        let mut panics = panics.into_inner();
        if !panics.is_empty() {
            panics.sort_by_key(|(rank, _)| *rank);
            std::panic::resume_unwind(panics.remove(0).1);
        }

        // Statically validate the complete traces plus whatever was left
        // undelivered in the mailboxes. Runs in which a rank died (injected
        // crash, exhausted send retries, or a peer declared dead) use the
        // fault-tolerant validator: leaks and truncated collective
        // sequences are expected fallout of a death, while self-sends,
        // reserved tags and true collective divergence remain hard errors.
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
/// messages, self-sends, reserved-tag misuse, and cross-rank
/// collective-ordering mismatches all fail the run with a report. If any rank
/// panics, the lowest-ranked panic is re-raised after every rank has stopped.
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

    #[test]
    fn point_to_point_roundtrip() {
        let (results, _) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::F64(vec![1.0, 2.0, 3.0]));
                comm.recv(1, 8).into_f64()
            } else {
                let got = comm.recv(0, 7).into_f64();
                let doubled: Vec<f64> = got.iter().map(|v| v * 2.0).collect();
                comm.send(0, 8, Payload::F64(doubled.clone()));
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
                comm.send(1, 1, Payload::U64(vec![111]));
                comm.send(1, 2, Payload::U64(vec![222]));
                0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, 2).into_u64()[0];
                let a = comm.recv(0, 1).into_u64()[0];
                assert_eq!((a, b), (111, 222));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let n = 5;
        let (results, _) = run(n, |comm| {
            let mut data = vec![(comm.rank() as f64, 1.0); 3];
            comm.allreduce_sum_c64(&mut data);
            data
        });
        let expect_re = (0..n).sum::<usize>() as f64;
        for r in results {
            for (re, im) in r {
                assert_eq!(re, expect_re);
                assert_eq!(im, n as f64);
            }
        }
    }

    #[test]
    fn allreduce_f64_and_max() {
        let (results, _) = run(4, |comm| {
            let mut v = vec![comm.rank() as f64];
            comm.allreduce_sum_f64(&mut v);
            let m = comm.allreduce_max_f64(comm.rank() as f64 * 10.0);
            (v[0], m)
        });
        for (s, m) in results {
            assert_eq!(s, 6.0);
            assert_eq!(m, 30.0);
        }
    }

    #[test]
    fn broadcast_and_gather() {
        let (results, _) = run(3, |comm| {
            let mut data = if comm.rank() == 1 {
                vec![(9.0, -1.0); 4]
            } else {
                Vec::new()
            };
            comm.broadcast_c64(1, &mut data);
            assert_eq!(data.len(), 4);
            let chunk = vec![(comm.rank() as f64, 0.0); comm.rank() + 1];
            let gathered = comm.gather_c64(0, &chunk);
            if comm.rank() == 0 {
                let g = gathered.expect("root gathers");
                assert_eq!(g[2].len(), 3);
                assert_eq!(g[1][0].0, 1.0);
            }
            data[0].0
        });
        assert!(results.iter().all(|&v| v == 9.0));
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let (results, _) = run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must observe all 4 increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 4));
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let (_, handle) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::C64(vec![(1.0, 2.0); 10]));
            } else {
                let _ = comm.recv(0, 0);
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.edge_messages(0, 1), 1);
        assert_eq!(stats.edge_bytes(0, 1), 160);
        assert_eq!(stats.edge_messages(1, 0), 0);
        assert_eq!(stats.total_bytes(), 160);
    }

    #[test]
    fn try_recv_nonblocking() {
        let (results, _) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 3, Payload::U64(vec![5]));
                comm.barrier();
                true
            } else {
                assert!(comm.try_recv(0, 3).is_none(), "nothing sent yet");
                comm.barrier();
                comm.barrier();
                // Now it must be there (sent before the second barrier).
                comm.try_recv(0, 3).is_some()
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let (results, _) = run(1, |comm| {
            let mut v = vec![(1.0, 2.0)];
            comm.allreduce_sum_c64(&mut v);
            let m = comm.allreduce_max_f64(3.5);
            comm.barrier();
            (v[0], m)
        });
        assert_eq!(results[0], ((1.0, 2.0), 3.5));
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
                    let _ = comm.recv(1, 5);
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
                let _ = comm.recv(peer, 9);
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
                    comm.send(1, 9, Payload::U64(vec![1, 2, 3]));
                }
            });
        });
        assert!(msg.contains("message leak"), "got: {msg}");
        assert!(
            msg.contains("src=0") && msg.contains("dst=1") && msg.contains("0x9"),
            "got: {msg}"
        );
    }

    #[test]
    fn mismatched_allreduce_lengths_fail_with_diagnostic() {
        // Rank 1 contributes a shorter buffer: the root's length check must
        // fire (and propagate out of `run`) instead of the ranks hanging.
        let msg = panic_message(|| {
            let _ = run_with_timeout(2, FAST, |comm| {
                let mut data = vec![1.0; 4 - comm.rank()];
                comm.allreduce_sum_f64(&mut data);
            });
        });
        assert!(msg.contains("allreduce_sum_f64"), "got: {msg}");
        assert!(msg.contains("equal-length"), "got: {msg}");
    }

    #[test]
    fn wrong_root_gather_fails_with_diagnostic() {
        // Both ranks believe they are the gather root: each waits for the
        // other's chunk — a cycle the watchdog must report.
        let msg = panic_message(|| {
            let _ = run_with_timeout(2, FAST, |comm| {
                let chunk = [(comm.rank() as f64, 0.0)];
                let _ = comm.gather_c64(comm.rank(), &chunk);
            });
        });
        assert!(msg.contains("deadlock detected"), "got: {msg}");
        assert!(msg.contains("cycle"), "got: {msg}");
    }

    #[test]
    fn traces_record_and_coalesce() {
        let (_, handle) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 4, Payload::U64(vec![7]));
            } else {
                // Three misses back-to-back must coalesce into one event.
                assert!(comm.try_recv(0, 4).is_none());
                assert!(comm.try_recv(0, 4).is_none());
                assert!(comm.try_recv(0, 4).is_none());
                comm.barrier();
                let _ = comm.recv(0, 4);
            }
        });
        let events = handle.events(1);
        let misses: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::TryRecvMiss { polls, .. } => Some(*polls),
                _ => None,
            })
            .collect();
        assert_eq!(misses, vec![3], "consecutive misses must coalesce");
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Recv { src: 0, tag: 4, .. })));
        assert!(handle
            .events(0)
            .iter()
            .any(|e| matches!(e, Event::Send { dst: 1, tag: 4, .. })));
    }

    #[test]
    fn barrier_straggler_panic_is_diagnosed() {
        // Rank 1 panics before ever reaching the barrier: rank 0's watchdog
        // must observe the Panicked dependency and abort its wait, so the run
        // terminates with a diagnosis instead of hanging. (`run` re-raises
        // the lowest-ranked panic, which here is rank 0's deadlock report.)
        let msg = panic_message(|| {
            let _ = run_with_timeout(2, FAST, |comm| {
                if comm.rank() == 0 {
                    comm.barrier();
                } else {
                    panic!("rank 1 exploded");
                }
            });
        });
        assert!(
            msg.contains("deadlock detected") || msg.contains("rank 1 exploded"),
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
                    let _ = comm.recv(1, 5);
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
                    comm.send_checked(0, 5, Payload::U64(vec![1]))
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
                    comm.send_checked(1, 5, Payload::U64(vec![42])).is_ok() as u64
                } else {
                    comm.recv_checked(0, 5).expect("delivered").into_u64()[0]
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
                    comm.send_checked(1, 5, Payload::U64(vec![42])).map(|_| 0)
                } else {
                    comm.recv_checked(0, 5).map(|p| p.into_u64()[0])
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
                    comm.send_checked(1, 5, Payload::F64(vec![3.25, -0.0, 1e-300]))
                        .map(|_| Vec::new())
                } else {
                    comm.recv_checked(0, 5).map(Payload::into_f64)
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
                    comm.send_checked(1, 5, Payload::U64(vec![42])).map(|_| 0)
                } else {
                    comm.recv_checked(0, 5).map(|p| p.into_u64()[0])
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
    fn heartbeat_detects_dead_peer_without_waiting_for_watchdog() {
        // Rank 1 crashes at its first op while rank 0 blocks in a receive.
        // The deadlock watchdog alone would need the full 30 s timeout; the
        // heartbeat monitor must surface the death in well under that.
        let t0 = ffw_obs::monotonic_ns();
        let launch = Runtime::new(2)
            .deadlock_timeout(Duration::from_secs(30))
            .heartbeat_interval(Duration::from_millis(2))
            .fault_plan(FaultPlan::new().crash_at(1, 1))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv_checked(1, 5).map(|_| ())
                } else {
                    comm.send_checked(0, 5, Payload::U64(vec![1]))
                }
            });
        let elapsed_ms = (ffw_obs::monotonic_ns() - t0) / 1_000_000;
        assert!(
            elapsed_ms < 5_000,
            "heartbeat detection took {elapsed_ms} ms — watchdog-timeout latency"
        );
        match &launch.outcomes[0] {
            RankOutcome::Done(Err(FaultError::PeerDead { peer: 1, .. })) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
        let suspects = launch.stats.heartbeat_suspects();
        assert_eq!(suspects.len(), 1, "exactly the dead rank is suspected");
        assert_eq!(suspects[0].0, 1);
        assert!(suspects[0].1 > DEFAULT_PHI_THRESHOLD);
        assert!(launch.stats.events(0).iter().any(|e| matches!(
            e,
            Event::Fault(FaultEvent::HeartbeatSuspect { peer: 1, .. })
        )));
    }

    #[test]
    fn straggler_delays_but_does_not_change_results() {
        let body = |comm: &Comm| {
            let mut v = vec![comm.rank() as f64];
            comm.allreduce_sum_f64(&mut v);
            v[0]
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

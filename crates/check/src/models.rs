//! Model-level replicas of the workspace's two concurrency protocols.
//!
//! These are *not* the real implementations — they are small state machines
//! capturing the synchronization skeleton of each protocol, so the
//! [`crate::loom`] explorer can enumerate every interleaving:
//!
//! * [`TagMailboxModel`] — the `ffw-mpi` per-edge tag-matched mailbox:
//!   senders append `(tag, value)` to a queue; the receiver extracts by tag,
//!   possibly out of order relative to arrival.
//! * [`AllreduceModel`] — the root-based allreduce of
//!   `ffw_dist::try_allreduce_scalars`: non-root members send their
//!   contribution to the root, the root reduces and sends the result back.
//! * [`DispenserModel`] — the `ffw-par` claim-then-deref protocol: workers
//!   claim chunk indices from an atomic `dispenser`, run the borrowed
//!   closure, then bump `chunks_done`; the submitting thread frees the job
//!   once `chunks_done == total_chunks`. The model tracks the job's `alive`
//!   flag so a worker touching the closure after the submitter freed it is a
//!   use-after-free the explorer can observe. [`DispenserBug`] seeds known-bad
//!   mutations that the exploration tests must catch.
//! * [`DurableWriterModel`] — the `ffw-fault` durable checkpoint writer: a
//!   loop enqueues boundaries of one path, flushes, then cancels and removes
//!   the path, while the writer thread takes, lands and finishes them.
//!   [`DurableBug`] seeds the mutations its exploration must catch.

use crate::loom::Model;

// ---------------------------------------------------------------------------
// Tag-matched mailbox
// ---------------------------------------------------------------------------

/// Two senders deliver differently-tagged messages into one mailbox (two
/// messages each); the receiver alternates popping tag `B` and tag `A` —
/// exercising out-of-order extraction and FIFO-within-tag no matter the
/// arrival order.
#[derive(Clone, Debug)]
pub struct TagMailboxModel {
    /// The mailbox queue in arrival order: `(tag, value)`.
    queue: Vec<(u32, u64)>,
    /// Program counters: `[sender_a, sender_b, receiver]`.
    pcs: [usize; 3],
    /// Values the receiver extracted, in extraction order.
    received: Vec<u64>,
}

const TAG_A: u32 = 1;
const TAG_B: u32 = 2;

impl TagMailboxModel {
    /// Fresh model: nothing sent, nothing received.
    pub fn new() -> Self {
        TagMailboxModel {
            queue: Vec::new(),
            pcs: [0; 3],
            received: Vec::new(),
        }
    }

    fn pop_matching(&mut self, tag: u32) -> Option<u64> {
        let pos = self.queue.iter().position(|&(t, _)| t == tag)?;
        Some(self.queue.remove(pos).1)
    }
}

impl Default for TagMailboxModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Messages each sender delivers in [`TagMailboxModel`].
const MSGS_PER_SENDER: usize = 3;

impl TagMailboxModel {
    /// Tag the receiver extracts at its `pc`-th pop: B, A, B, A, …
    fn wanted_tag(pc: usize) -> u32 {
        if pc.is_multiple_of(2) {
            TAG_B
        } else {
            TAG_A
        }
    }
}

impl Model for TagMailboxModel {
    fn thread_count(&self) -> usize {
        3
    }

    fn is_done(&self, tid: usize) -> bool {
        match tid {
            0 | 1 => self.pcs[tid] == MSGS_PER_SENDER,
            _ => self.pcs[2] == 2 * MSGS_PER_SENDER,
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        if self.is_done(tid) {
            return false;
        }
        match tid {
            0 | 1 => true,
            _ => {
                // recv blocks until a message with the wanted tag is queued.
                let want = Self::wanted_tag(self.pcs[2]);
                self.queue.iter().any(|&(t, _)| t == want)
            }
        }
    }

    fn step(&mut self, tid: usize) {
        match tid {
            0 => self.queue.push((TAG_A, 100 + self.pcs[0] as u64)),
            1 => self.queue.push((TAG_B, 200 + self.pcs[1] as u64)),
            _ => {
                let want = Self::wanted_tag(self.pcs[2]);
                let value = self.pop_matching(want).expect("enabled implies queued");
                self.received.push(value);
            }
        }
        self.pcs[tid] += 1;
    }

    fn check_final(&self) -> Result<(), String> {
        // Alternating tag extraction plus FIFO order within each tag.
        let expected: Vec<u64> = (0..2 * MSGS_PER_SENDER as u64)
            .map(|i| if i % 2 == 0 { 200 + i / 2 } else { 100 + i / 2 })
            .collect();
        if self.received != expected {
            return Err(format!(
                "receiver extracted {:?}, expected {expected:?} \
                 (alternating tags, FIFO within tag)",
                self.received
            ));
        }
        if !self.queue.is_empty() {
            return Err(format!("messages left in mailbox: {:?}", self.queue));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Root-based allreduce
// ---------------------------------------------------------------------------

/// The root-based allreduce protocol of `ffw_dist::try_allreduce_scalars`
/// (the sub-tree inner products and illumination-group reductions).
///
/// Each non-root rank sends its contribution to rank 0 (the "up" message),
/// then blocks until the reduced result comes back ("down"). Rank 0 collects
/// all contributions in any arrival order, reduces, then sends the result to
/// every peer. The final check asserts every rank holds the same correct sum
/// and no message is left queued.
#[derive(Clone, Debug)]
pub struct AllreduceModel {
    n_ranks: usize,
    /// Contribution of each rank (rank r contributes `r + 1`).
    contrib: Vec<u64>,
    /// Root's running reduction (starts at its own contribution).
    acc: u64,
    /// Result slot for each rank (`None` until the down message lands).
    result: Vec<Option<u64>>,
    /// Up messages queued at the root: `(src, value)`.
    up_queue: Vec<(usize, u64)>,
    /// Down messages in flight: `(dst, value)`.
    down_queue: Vec<(usize, u64)>,
    /// Per-rank program counter.
    ///
    /// Non-root: 0 = send up, 1 = await down, 2 = done.
    /// Root: 0..n-1 = pop one up message each, n-1..2(n-1) = send one down
    /// message each, 2(n-1) = done.
    pcs: Vec<usize>,
}

impl AllreduceModel {
    /// Fresh model over `n_ranks` ranks (must be ≥ 2 to be interesting).
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "allreduce needs at least one rank");
        let contrib: Vec<u64> = (0..n_ranks).map(|r| r as u64 + 1).collect();
        let mut result = vec![None; n_ranks];
        if n_ranks == 1 {
            // Degenerate single-rank reduce: the root's own value is the answer.
            result[0] = Some(contrib[0]);
        }
        AllreduceModel {
            n_ranks,
            acc: contrib[0],
            contrib,
            result,
            up_queue: Vec::new(),
            down_queue: Vec::new(),
            pcs: vec![0; n_ranks],
        }
    }

    fn expected_sum(&self) -> u64 {
        self.contrib.iter().sum()
    }

    fn root_done_pc(&self) -> usize {
        2 * (self.n_ranks - 1)
    }
}

impl Model for AllreduceModel {
    fn thread_count(&self) -> usize {
        self.n_ranks
    }

    fn is_done(&self, tid: usize) -> bool {
        if tid == 0 {
            self.pcs[0] == self.root_done_pc()
        } else {
            self.pcs[tid] == 2
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        if self.is_done(tid) {
            return false;
        }
        if tid == 0 {
            if self.pcs[0] < self.n_ranks - 1 {
                // Popping an up message blocks until one is queued.
                !self.up_queue.is_empty()
            } else {
                true // sending down never blocks
            }
        } else {
            match self.pcs[tid] {
                0 => true, // sending up never blocks
                _ => self.down_queue.iter().any(|&(dst, _)| dst == tid),
            }
        }
    }

    fn step(&mut self, tid: usize) {
        if tid == 0 {
            if self.pcs[0] < self.n_ranks - 1 {
                let (src, value) = self.up_queue.remove(0);
                self.acc += value;
                debug_assert_ne!(src, 0);
            } else {
                // Root's reduction is complete once all ups are in; record it
                // the first time we enter the down phase.
                if self.pcs[0] == self.n_ranks - 1 {
                    self.result[0] = Some(self.acc);
                }
                let dst = self.pcs[0] - (self.n_ranks - 1) + 1;
                self.down_queue.push((dst, self.acc));
            }
        } else {
            match self.pcs[tid] {
                0 => self.up_queue.push((tid, self.contrib[tid])),
                _ => {
                    let pos = self
                        .down_queue
                        .iter()
                        .position(|&(dst, _)| dst == tid)
                        .expect("enabled implies queued");
                    let (_, value) = self.down_queue.remove(pos);
                    self.result[tid] = Some(value);
                }
            }
        }
        self.pcs[tid] += 1;
    }

    fn check_final(&self) -> Result<(), String> {
        let want = self.expected_sum();
        for (rank, result) in self.result.iter().enumerate() {
            match result {
                Some(v) if *v == want => {}
                Some(v) => {
                    return Err(format!("rank {rank} got {v}, expected {want}"));
                }
                None => return Err(format!("rank {rank} never received a result")),
            }
        }
        if !self.up_queue.is_empty() || !self.down_queue.is_empty() {
            return Err(format!(
                "messages left queued: up={:?} down={:?}",
                self.up_queue, self.down_queue
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Chunk dispenser (ffw-par claim-then-deref)
// ---------------------------------------------------------------------------

/// Seeded mutations of the dispenser protocol for the explorer to catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispenserBug {
    /// The correct protocol.
    None,
    /// A worker claims and runs a chunk but never increments `chunks_done` —
    /// the submitter waits forever (the bug the `done_tx` channel guards
    /// against in the real pool).
    SkipDoneIncrement,
    /// A worker increments `chunks_done` *before* running the chunk — the
    /// submitter can observe completion, free the job, and leave the worker
    /// dereferencing a dangling closure (the exact ordering the real pool's
    /// `AcqRel` increment-after-run prevents).
    IncrementBeforeRun,
}

/// Worker program counter phases for [`DispenserModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerPhase {
    /// About to claim a chunk index from the dispenser.
    Claim,
    /// Holding chunk `idx`, about to dereference the closure and run it.
    Run {
        /// Claimed chunk index.
        idx: usize,
    },
    /// Ran chunk, about to increment `chunks_done`.
    Bump,
    /// Out of chunks; worker exits.
    Done,
}

/// Model of `ffw-par`'s chunk dispenser and job-lifetime protocol.
///
/// Threads `0..n_workers` are pool workers; thread `n_workers` is the
/// submitter, which blocks until `chunks_done == total_chunks` and then frees
/// the job (clears `alive`). The per-step invariant is the claim-then-deref
/// contract: **no worker may run a chunk after the job has been freed.**
#[derive(Clone, Debug)]
pub struct DispenserModel {
    n_items: usize,
    grain: usize,
    n_workers: usize,
    bug: DispenserBug,
    /// Next chunk index to hand out (the atomic `dispenser`).
    dispenser: usize,
    /// Chunks fully processed (the atomic `chunks_done`).
    chunks_done: usize,
    total_chunks: usize,
    /// Whether the job (and the borrowed closure) is still allocated.
    alive: bool,
    /// How many times each item was processed (exactly once expected).
    processed: Vec<usize>,
    workers: Vec<WorkerPhase>,
    submitter_done: bool,
    /// Set when a worker dereferenced the closure after the job was freed.
    use_after_free: Option<usize>,
}

impl DispenserModel {
    /// Fresh model: `n_items` items in chunks of `grain`, `n_workers` pool
    /// workers plus one submitter thread, with `bug` seeded into the workers.
    pub fn new(n_items: usize, grain: usize, n_workers: usize, bug: DispenserBug) -> Self {
        assert!(grain > 0 && n_items > 0 && n_workers > 0);
        DispenserModel {
            n_items,
            grain,
            n_workers,
            bug,
            dispenser: 0,
            chunks_done: 0,
            total_chunks: n_items.div_ceil(grain),
            alive: true,
            processed: vec![0; n_items],
            workers: vec![WorkerPhase::Claim; n_workers],
            submitter_done: false,
            use_after_free: None,
        }
    }

    fn submitter_tid(&self) -> usize {
        self.n_workers
    }
}

impl Model for DispenserModel {
    fn thread_count(&self) -> usize {
        self.n_workers + 1
    }

    fn is_done(&self, tid: usize) -> bool {
        if tid == self.submitter_tid() {
            self.submitter_done
        } else {
            self.workers[tid] == WorkerPhase::Done
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        if self.is_done(tid) {
            return false;
        }
        if tid == self.submitter_tid() {
            // The submitter blocks until every chunk reports done.
            self.chunks_done == self.total_chunks
        } else {
            true
        }
    }

    fn step(&mut self, tid: usize) {
        if tid == self.submitter_tid() {
            // Wakes from the done signal and frees the job.
            self.alive = false;
            self.submitter_done = true;
            return;
        }
        match self.workers[tid] {
            WorkerPhase::Claim => {
                let idx = self.dispenser;
                if idx >= self.total_chunks {
                    self.workers[tid] = WorkerPhase::Done;
                } else {
                    self.dispenser += 1;
                    if self.bug == DispenserBug::IncrementBeforeRun {
                        self.chunks_done += 1;
                    }
                    self.workers[tid] = WorkerPhase::Run { idx };
                }
            }
            WorkerPhase::Run { idx } => {
                // Dereference the closure: only sound while the job is alive.
                if !self.alive {
                    self.use_after_free = Some(tid);
                }
                let start = idx * self.grain;
                let end = (start + self.grain).min(self.n_items);
                for item in start..end {
                    self.processed[item] += 1;
                }
                self.workers[tid] = match self.bug {
                    DispenserBug::SkipDoneIncrement | DispenserBug::IncrementBeforeRun => {
                        WorkerPhase::Claim
                    }
                    DispenserBug::None => WorkerPhase::Bump,
                };
            }
            WorkerPhase::Bump => {
                self.chunks_done += 1;
                self.workers[tid] = WorkerPhase::Claim;
            }
            WorkerPhase::Done => unreachable!("done workers are never stepped"),
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(tid) = self.use_after_free {
            return Err(format!(
                "use-after-free: worker {tid} dereferenced the job closure after the \
                 submitter freed it (chunks_done={}/{} at free time)",
                self.chunks_done, self.total_chunks
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        for (item, count) in self.processed.iter().enumerate() {
            if *count != 1 {
                return Err(format!("item {item} processed {count} times, expected 1"));
            }
        }
        if self.chunks_done != self.total_chunks {
            return Err(format!(
                "chunks_done = {} but total_chunks = {}",
                self.chunks_done, self.total_chunks
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durable checkpoint writer (ffw-fault enqueue / supersede / flush / cancel)
// ---------------------------------------------------------------------------

/// Seeded mutations of the durable-writer protocol for the explorer to catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurableBug {
    /// The correct protocol.
    None,
    /// A superseded boundary's callbacks are dropped with its tmp file: its
    /// progress is never reported.
    SupersedeDropsCallbacks,
    /// `flush` waits for the queued boundary only, not the one in flight:
    /// it can return before the latest boundary is on disk.
    FlushIgnoresInFlight,
    /// `cancel` drops the queued boundary but does not wait out the one in
    /// flight: its rename can land after the caller removed the path.
    CancelWithoutWait,
}

/// The loop's program for [`DurableWriterModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoopOp {
    /// Stream boundary `k` into its tmp file and queue it.
    Enqueue(u32),
    /// Wait until nothing is queued or in flight.
    Flush,
    /// Drop the queued boundary (and its tmp file).
    CancelDrop,
    /// Wait out the boundary in flight.
    CancelWait,
    /// Delete the published path.
    Remove,
}

const LOOP_PROGRAM: [LoopOp; 8] = [
    LoopOp::Enqueue(1),
    LoopOp::Enqueue(2),
    LoopOp::Enqueue(3),
    LoopOp::Flush,
    LoopOp::Enqueue(4),
    LoopOp::CancelDrop,
    LoopOp::CancelWait,
    LoopOp::Remove,
];

/// Writer-thread phases for [`DurableWriterModel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriterPhase {
    /// Waiting for a queued boundary (takes it under the lock).
    Take,
    /// Holding the taken boundary: sync, rename, run its callbacks.
    Land,
    /// Clearing `busy` under the lock.
    Finish,
}

/// Model of one path through `ffw-fault`'s durable writer.
///
/// Thread 0 is the loop running `LOOP_PROGRAM`: three boundaries, a flush
/// (a stop, or the end of a run), a fourth boundary, then the service's
/// removal of a terminal job's checkpoint (cancel, then delete). Thread 1 is
/// the writer thread. Invariants: callbacks (progress) run in boundary
/// order, only for boundaries on disk; a flush returns with the latest
/// boundary on disk; nothing lands after the removal; no tmp file outlives
/// the run, and the boundaries before the flush are all reported.
#[derive(Clone, Debug)]
pub struct DurableWriterModel {
    bug: DurableBug,
    pc: usize,
    /// The newest boundary not yet taken, with its callbacks (its own and
    /// those of the boundaries it superseded).
    queued: Option<(u32, Vec<u32>)>,
    /// The boundary the writer holds, with its callbacks.
    in_flight: Option<(u32, Vec<u32>)>,
    writer: WriterPhase,
    /// The boundary at the published path.
    disk: Option<u32>,
    /// Boundaries whose tmp file exists.
    tmp: Vec<u32>,
    /// Callbacks run, in order.
    reported: Vec<u32>,
    /// Every boundary that ever landed.
    landed: Vec<u32>,
    removed: bool,
    /// Set when a flush returned without the latest boundary on disk.
    flush_short: Option<Option<u32>>,
}

impl DurableWriterModel {
    /// Fresh model with `bug` seeded into the protocol.
    pub fn new(bug: DurableBug) -> Self {
        DurableWriterModel {
            bug,
            pc: 0,
            queued: None,
            in_flight: None,
            writer: WriterPhase::Take,
            disk: None,
            tmp: Vec::new(),
            reported: Vec::new(),
            landed: Vec::new(),
            removed: false,
            flush_short: None,
        }
    }

    fn loop_done(&self) -> bool {
        self.pc == LOOP_PROGRAM.len()
    }
}

impl Model for DurableWriterModel {
    fn thread_count(&self) -> usize {
        2
    }

    fn is_done(&self, tid: usize) -> bool {
        match tid {
            0 => self.loop_done(),
            _ => {
                self.loop_done()
                    && self.queued.is_none()
                    && self.in_flight.is_none()
                    && self.writer == WriterPhase::Take
            }
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        if self.is_done(tid) {
            return false;
        }
        if tid == 1 {
            return match self.writer {
                WriterPhase::Take => self.queued.is_some(),
                WriterPhase::Land | WriterPhase::Finish => true,
            };
        }
        match LOOP_PROGRAM[self.pc] {
            LoopOp::Flush => {
                self.queued.is_none()
                    && (self.in_flight.is_none() || self.bug == DurableBug::FlushIgnoresInFlight)
            }
            LoopOp::CancelWait => {
                self.in_flight.is_none() || self.bug == DurableBug::CancelWithoutWait
            }
            _ => true,
        }
    }

    fn step(&mut self, tid: usize) {
        if tid == 1 {
            match self.writer {
                WriterPhase::Take => {
                    self.in_flight = self.queued.take();
                    self.writer = WriterPhase::Land;
                }
                WriterPhase::Land => {
                    let (k, callbacks) = self.in_flight.clone().expect("taken");
                    self.tmp.retain(|&t| t != k);
                    self.disk = Some(k);
                    self.landed.push(k);
                    self.reported.extend(callbacks);
                    self.writer = WriterPhase::Finish;
                }
                WriterPhase::Finish => {
                    self.in_flight = None;
                    self.writer = WriterPhase::Take;
                }
            }
            return;
        }
        match LOOP_PROGRAM[self.pc] {
            LoopOp::Enqueue(k) => {
                self.tmp.push(k);
                let mut callbacks = Vec::new();
                if let Some((old, old_callbacks)) = self.queued.take() {
                    self.tmp.retain(|&t| t != old);
                    if self.bug != DurableBug::SupersedeDropsCallbacks {
                        callbacks = old_callbacks;
                    }
                }
                callbacks.push(k);
                self.queued = Some((k, callbacks));
            }
            LoopOp::Flush => {
                if self.disk != Some(3) {
                    self.flush_short = Some(self.disk);
                }
            }
            LoopOp::CancelDrop => {
                if let Some((k, _)) = self.queued.take() {
                    self.tmp.retain(|&t| t != k);
                }
            }
            LoopOp::CancelWait => {}
            LoopOp::Remove => {
                self.disk = None;
                self.removed = true;
            }
        }
        self.pc += 1;
    }

    fn check(&self) -> Result<(), String> {
        if let Some(disk) = self.flush_short {
            return Err(format!(
                "flush returned with boundary {disk:?} on disk, not the latest (3)"
            ));
        }
        if self.removed && self.disk.is_some() {
            return Err(format!(
                "boundary {:?} landed after the checkpoint was removed",
                self.disk
            ));
        }
        if self.reported.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("callbacks out of order: {:?}", self.reported));
        }
        if let Some(k) = self.reported.iter().find(|k| !self.landed.contains(k)) {
            let newer = self.landed.iter().any(|l| l > k);
            if !newer {
                return Err(format!("boundary {k} reported before any newer one landed"));
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        if !self.tmp.is_empty() {
            return Err(format!("tmp files left behind: {:?}", self.tmp));
        }
        if self.reported.get(..3) != Some(&[1, 2, 3][..]) {
            return Err(format!(
                "boundaries before the flush not all reported: {:?}",
                self.reported
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn mailbox_model_clean() {
        let report = Explorer::default().explore(&TagMailboxModel::new());
        assert!(report.is_clean(), "{:?}", report);
        assert!(report.complete_schedules > 1);
    }

    #[test]
    fn allreduce_model_clean() {
        let report = Explorer::default().explore(&AllreduceModel::new(3));
        assert!(report.is_clean(), "{:?}", report);
    }

    #[test]
    fn dispenser_model_clean() {
        let report = Explorer::default().explore(&DispenserModel::new(4, 2, 2, DispenserBug::None));
        assert!(report.is_clean(), "{:?}", report);
    }

    #[test]
    fn skip_done_increment_deadlocks() {
        let report = Explorer::default().explore(&DispenserModel::new(
            4,
            2,
            2,
            DispenserBug::SkipDoneIncrement,
        ));
        assert!(
            !report.deadlocks.is_empty(),
            "dropping the chunks_done increment must strand the submitter"
        );
    }
}

//! Fault-tolerant distributed DBIM: checkpoint/restart plus zero-data-loss
//! elastic recovery on rank death.
//!
//! The driver [`run_dbim_ft`] runs the paper's two-dimensional parallel DBIM
//! (illumination groups x MLFMA sub-trees): every rank runs the one DBIM
//! loop, [`ffw_inverse::dbim_loop`], on its `GridContext` — the same code
//! the serial `ffw_inverse::dbim` runs on the 1×1 grid — over the *checked*
//! communication paths, so a dead peer, a message lost beyond the retry
//! budget, a payload that fails integrity verification, or a Krylov
//! breakdown unwinds the rank with a typed [`FaultError`] instead of a panic
//! or a hang. This module holds the grid context, its end-of-iteration hook
//! (checkpoint gather + collective stop) and the recovery loop; it contains
//! no reconstruction arithmetic. Recovery happens at launch granularity:
//!
//! 1. After every completed outer iteration the full reconstruction state
//!    (contrast vector, conjugate-direction state, warm-start fields,
//!    residual history) is gathered to rank 0 and written to an atomic,
//!    checksummed checkpoint ([`ffw_fault::Checkpoint`]).
//! 2. When a rank dies, its peers detect the death (the dead rank's wake-up
//!    of the receives waiting on it, the watchdog, or retry exhaustion),
//!    unwind, and the launch collapses into per-rank
//!    [`ffw_mpi::RankOutcome`]s. The driver attributes the death (crashes
//!    and exhausted retries are primary; watchdog `PeerDead` reports are
//!    symptoms), then **redistributes** the dead groups'
//!    transmitters across the surviving illumination groups — a
//!    deterministic round-robin over a stable ordering, so a resumed run
//!    stays bit-identical — reloads the last checkpoint, and relaunches.
//!    No illumination is lost as long as at least
//!    [`FtConfig::min_groups`] groups survive; warm-start fields for the
//!    adopted transmitters are restored from the checkpoint (keyed by
//!    transmitter id) or re-solved from zero.
//! 3. Only when the survivors fall *below* `min_groups` does the driver
//!    fall back to the legacy degraded mode: dropping every group that
//!    contained a dead rank and reporting the dropped transmitters in
//!    [`FtDbimResult::lost_txs`] (the residual assembly reweights
//!    automatically because the measured norm is recomputed over the
//!    surviving transmitters only).
//!
//! A `--resume` style restart (pass `resume: true` with the same scene and
//! config) restarts bit-identically from the last completed outer iteration:
//! the checkpoint carries everything the iteration boundary depends on, and
//! a config fingerprint guards against resuming someone else's state.

use crate::control::JobControl;
use crate::engine::DistMlfma;
use crate::solver::try_allreduce_scalars;
use crate::tag::Tag;
use ffw_fault::{durable, Checkpoint, CheckpointFile, Fingerprint};
use ffw_inverse::{
    dbim_loop, DbimConfig, DbimResult, Flow, ImagingSetup, LoopState, RankContext, StageResult,
};
use ffw_mlfma::MlfmaPlan;
use ffw_mpi::{Comm, FaultError, FaultPlan, Payload, RankOutcome, Runtime};
use ffw_numerics::{c64, C64};
use ffw_solver::{VerifyConfig, Workspace};
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a fault-tolerant distributed reconstruction.
#[derive(Clone, Debug)]
pub struct FtConfig {
    /// The DBIM iteration settings (shared with the serial solver).
    pub dbim: DbimConfig,
    /// Illumination groups (must divide the transmitter count).
    pub groups: usize,
    /// Sub-tree ranks per group (must divide 16).
    pub subtree_ranks: usize,
    /// Checkpoint file path; `None` disables checkpointing (a crash then
    /// degrades to a from-scratch relaunch on the surviving ranks).
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` instead of starting fresh. The checkpoint's
    /// config fingerprint must match this run.
    pub resume: bool,
    /// How many times the driver may relaunch after losing ranks before
    /// giving up with [`FaultError::Unrecoverable`].
    pub max_restarts: u32,
    /// Minimum number of surviving illumination groups required for elastic
    /// redistribution. While at least this many groups survive a rank
    /// death, the dead groups' transmitters are redistributed across the
    /// survivors and nothing is lost; below it the driver falls back to the
    /// legacy degraded mode that drops the dead groups' illuminations.
    /// Must be at least 1; the default is 1 (always redistribute while any
    /// group survives).
    pub min_groups: usize,
    /// External control: cooperative cancel/pause plus per-iteration
    /// progress streaming. When the stop intent is raised (directly or via
    /// the process-wide shutdown flag), every rank agrees collectively at
    /// the next outer-iteration boundary — *after* that iteration's
    /// checkpoint is written — and the driver returns with
    /// [`FtDbimResult::interrupted`] set. Resuming from the checkpoint
    /// continues bit-identically with an uninterrupted run.
    pub control: Option<JobControl>,
    /// Seeded fault plan injected into the *first* launch (test harness
    /// hook); relaunches after a failure run fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Programmatic deadlock-watchdog timeout for the underlying runtime
    /// (the `FFW_DEADLOCK_TIMEOUT_MS` environment variable still wins).
    pub deadlock_timeout: Option<Duration>,
}

impl FtConfig {
    /// Fault-tolerant run over a `groups x subtree_ranks` grid with default
    /// DBIM settings, no checkpointing and no injected faults.
    pub fn new(groups: usize, subtree_ranks: usize) -> Self {
        FtConfig {
            dbim: DbimConfig::default(),
            groups,
            subtree_ranks,
            checkpoint: None,
            resume: false,
            max_restarts: 1,
            min_groups: 1,
            control: None,
            fault_plan: None,
            deadlock_timeout: None,
        }
    }
}

/// Result of a fault-tolerant distributed reconstruction.
#[derive(Clone, Debug)]
pub struct FtDbimResult {
    /// Reconstructed object over the full domain (tree order).
    pub object: Vec<C64>,
    /// Relative residual after each completed outer iteration. Residuals are
    /// always measured against the *surviving* transmitters of the launch
    /// that produced them.
    pub residual_history: Vec<f64>,
    /// Final relative residual over the surviving transmitters.
    pub final_residual: f64,
    /// Transmitter indices lost to dead ranks. Empty on a clean run *and*
    /// on any faulty run where at least [`FtConfig::min_groups`] groups
    /// survived — their illuminations are redistributed, not dropped.
    /// Non-empty only after the below-minimum fallback dropped groups.
    pub lost_txs: Vec<usize>,
    /// How many times the driver relaunched after losing ranks.
    pub restarts: u32,
    /// `Some(next_iter)` when the run was stopped early by its
    /// [`FtConfig::control`] (cancel, pause, or process shutdown): outer
    /// iterations `0..next_iter` are complete and checkpointed; resuming
    /// the same config continues bit-identically. `None` on a run that
    /// finished all its iterations.
    pub interrupted: Option<u32>,
    /// The wGCV-chosen regularization parameter of every outer iteration
    /// the final launch ran (empty for the fixed-lambda regularizers).
    pub lambdas: Vec<f64>,
}

impl StageResult for FtDbimResult {
    fn object(&self) -> &[C64] {
        &self.object
    }
    fn final_residual(&self) -> f64 {
        self.final_residual
    }
    fn interrupted(&self) -> Option<u32> {
        self.interrupted
    }
}

fn pack(v: &[C64]) -> Vec<(f64, f64)> {
    v.iter().map(|c| (c.re, c.im)).collect()
}

/// Fingerprint of everything the checkpointed state depends on: scene
/// dimensions, rank grid, every iteration setting that changes the iterate
/// ([`DbimConfig::fold_fingerprint`]) and the measured data itself.
pub fn run_fingerprint(
    setup: &ImagingSetup,
    cfg: &DbimConfig,
    groups: usize,
    subtree_ranks: usize,
    measured: &[Vec<C64>],
) -> u64 {
    let mut fp = cfg.fold_fingerprint(
        Fingerprint::new()
            .u64(setup.n_pixels() as u64)
            .u64(setup.n_tx() as u64)
            .u64(setup.n_rx() as u64)
            .u64(groups as u64)
            .u64(subtree_ranks as u64),
    );
    for m in measured {
        for v in m {
            fp = fp.f64(v.re).f64(v.im);
        }
    }
    fp.finish()
}

fn lost_of(alive: &[Vec<usize>], n_tx: usize) -> Vec<usize> {
    let kept: BTreeSet<usize> = alive.iter().flatten().copied().collect();
    (0..n_tx).filter(|t| !kept.contains(t)).collect()
}

/// Runs the fault-tolerant distributed DBIM reconstruction.
///
/// On a clean run this is the serial `ffw_inverse::dbim` — the same loop on
/// another context — and matches it to near machine precision (bit for bit
/// on the 1×1 grid). Under faults it recovers per the module docs, and
/// returns [`FaultError`] only when no recovery is possible: the restart
/// budget is spent, every group is lost, the checkpoint is unusable, or a
/// non-fault typed error (e.g. a Krylov breakdown that survived its restart)
/// occurred.
pub fn run_dbim_ft(
    setup: &ImagingSetup,
    plan: Arc<MlfmaPlan>,
    measured: &[Vec<C64>],
    cfg: &FtConfig,
) -> Result<FtDbimResult, FaultError> {
    // The last boundary's checkpoint lands before the run returns.
    durable::after_run(
        cfg.checkpoint.as_deref(),
        run_launches(setup, plan, measured, cfg),
    )
}

fn run_launches(
    setup: &ImagingSetup,
    plan: Arc<MlfmaPlan>,
    measured: &[Vec<C64>],
    cfg: &FtConfig,
) -> Result<FtDbimResult, FaultError> {
    let groups = cfg.groups;
    let p = cfg.subtree_ranks;
    let n_tx = setup.n_tx();
    assert_eq!(measured.len(), n_tx);
    assert_eq!(n_tx % groups, 0, "transmitters must divide among groups");
    assert!(cfg.min_groups >= 1, "min_groups must be at least 1");
    let tx_per_group = n_tx / groups;
    let fingerprint = run_fingerprint(setup, &cfg.dbim, groups, p, measured);

    // Transmitter sets per surviving group. Initially one contiguous block
    // per group; as ranks die the dead groups' transmitters are
    // redistributed across the survivors (or, below min_groups, dropped),
    // so entries may grow beyond their original block.
    let mut alive: Vec<Vec<usize>> = (0..groups)
        .map(|g| (g * tx_per_group..(g + 1) * tx_per_group).collect())
        .collect();
    let mut state: Option<Checkpoint> = None;

    if cfg.resume {
        let path = cfg
            .checkpoint
            .as_deref()
            .ok_or_else(|| FaultError::Unrecoverable {
                detail: "resume requested but no checkpoint path configured".into(),
            })?;
        let ckpt = Checkpoint::load(path, fingerprint)?;
        ffw_obs::event(
            "dist.checkpoint.load",
            &format!("resume from iter {} ({})", ckpt.next_iter, path.display()),
        );
        let lost: BTreeSet<usize> = ckpt.lost_txs.iter().map(|&t| t as usize).collect();
        alive.retain(|txs| !txs.iter().any(|t| lost.contains(t)));
        state = Some(ckpt);
    }

    let mut fault_plan = cfg.fault_plan.clone();
    let mut restarts = 0u32;
    loop {
        if alive.is_empty() {
            return Err(FaultError::Unrecoverable {
                detail: "every illumination group has been lost".into(),
            });
        }
        let n_ranks = alive.len() * p;
        let mut rt = Runtime::new(n_ranks);
        if let Some(t) = cfg.deadlock_timeout {
            rt = rt.deadlock_timeout(t);
        }
        if let Some(fp) = fault_plan.take() {
            rt = rt.fault_plan(fp);
        }
        let lost_txs = lost_of(&alive, n_tx);
        let (alive_ref, state_ref, lost_ref) = (&alive, state.as_ref(), &lost_txs);
        let control_ref = cfg.control.as_ref();
        let plan2 = Arc::clone(&plan);
        let ckpt_path = cfg.checkpoint.as_deref();
        let launch_span = ffw_obs::span("dist.launch");
        let launch = rt.launch(move |comm| {
            let ctx = GridContext::new(
                &comm,
                Arc::clone(&plan2),
                alive_ref,
                p,
                &cfg.dbim,
                GridHook {
                    ckpt_path,
                    fingerprint,
                    lost_txs: lost_ref,
                    control: control_ref,
                },
            );
            ctx.run(setup, measured, &cfg.dbim, state_ref)
        });
        drop(launch_span);
        launch.stats.stats().record_obs();

        // Which ranks of this launch are gone? Crashes, exhausted-retry
        // send losses, exhausted-retransmit corruption and escalated compute
        // corruption are primary evidence (a panicked rank is always
        // `Crashed` here: an organic panic is re-raised by the launch).
        // Watchdog `PeerDead` reports are only symptoms — a rank blocked on an
        // alive-but-itself-blocked peer misattributes the death — so they
        // are trusted only when no primary evidence exists (a pure-timeout
        // stall).
        let mut primary: BTreeSet<usize> = BTreeSet::new();
        let mut secondary: BTreeSet<usize> = BTreeSet::new();
        for (r, out) in launch.outcomes.iter().enumerate() {
            match out {
                RankOutcome::Crashed(_) => {
                    primary.insert(r);
                }
                RankOutcome::Done(Err(FaultError::SendLost { dst, .. })) => {
                    primary.insert(*dst);
                }
                RankOutcome::Done(Err(FaultError::Corruption { src, .. })) => {
                    // A peer whose messages can no longer be delivered
                    // intact is as lost as a crashed one.
                    primary.insert(*src);
                }
                RankOutcome::Done(Err(FaultError::ComputeCorruption { rank, .. })) => {
                    // The detecting rank is the corrupted one: its local
                    // panel output failed the ABFT checksum, and the halo
                    // data needed to recompute it is already consumed. The
                    // rank's exit is the death; the typed error is the
                    // primary evidence attributing it.
                    primary.insert(*rank);
                }
                RankOutcome::Done(Err(FaultError::PeerDead { peer, .. })) => {
                    secondary.insert(*peer);
                }
                RankOutcome::Done(_) => {}
            }
        }
        let dead = if primary.is_empty() {
            secondary
        } else {
            primary
        };

        if dead.is_empty() {
            // No rank died: either full success, or a typed non-fault error
            // (Krylov breakdown, checkpoint I/O) that recovery cannot fix.
            let mut outs: Vec<Option<DbimResult>> = Vec::with_capacity(n_ranks);
            let mut first_err: Option<FaultError> = None;
            for out in launch.outcomes {
                match out {
                    RankOutcome::Done(Ok(o)) => outs.push(Some(o)),
                    RankOutcome::Done(Err(e)) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        outs.push(None);
                    }
                    RankOutcome::Crashed(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        outs.push(None);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            // Assemble the object from group 0 (slots 0..p own contiguous
            // pixel ranges covering the whole domain, in slot order).
            let mut slots = outs
                .into_iter()
                .take(p)
                .map(|o| o.expect("checked above: every rank returned Ok"));
            let lead = slots.next().expect("at least one slot");
            let mut object = lead.object;
            for o in slots {
                object.extend_from_slice(&o.object);
            }
            if let Some(next) = lead.stopped {
                ffw_obs::event(
                    "dist.stop",
                    &format!("run stopped at outer-iteration boundary {next}"),
                );
            }
            if ffw_obs::enabled() {
                ffw_obs::counter("dist.restarts").add(restarts as u64);
            }
            return Ok(FtDbimResult {
                object,
                residual_history: lead.residual_history,
                final_residual: lead.final_residual,
                lost_txs,
                restarts,
                interrupted: lead.stopped,
                lambdas: lead.lambdas,
            });
        }

        // Elastic recovery: redistribute the dead groups' transmitters
        // across the survivors, restore the last checkpointed state, and
        // relaunch. Only below min_groups does the driver fall back to
        // dropping the dead groups' illuminations.
        if restarts >= cfg.max_restarts {
            return Err(FaultError::Unrecoverable {
                detail: format!(
                    "rank(s) {dead:?} died and the restart budget ({}) is exhausted",
                    cfg.max_restarts
                ),
            });
        }
        restarts += 1;
        ffw_obs::event(
            "dist.relaunch",
            &format!("rank(s) {dead:?} dead; relaunch {restarts} on surviving groups"),
        );
        let dead_groups: BTreeSet<usize> = dead.iter().map(|r| r / p).collect();
        // Orphaned transmitters in a stable (sorted) order, collected
        // before the dead groups are removed.
        let mut orphaned: Vec<usize> = dead_groups
            .iter()
            .filter_map(|&g| alive.get(g))
            .flatten()
            .copied()
            .collect();
        orphaned.sort_unstable();
        let mut gi = 0usize;
        alive.retain(|_| {
            let keep = !dead_groups.contains(&gi);
            gi += 1;
            keep
        });
        if alive.len() >= cfg.min_groups && !alive.is_empty() {
            // Deterministic round-robin over the surviving groups in their
            // stable order: the same deaths always produce the same
            // assignment, so a resumed run stays bit-identical.
            let n_alive = alive.len();
            for (i, &tx) in orphaned.iter().enumerate() {
                alive[i % n_alive].push(tx);
            }
            for txs in &mut alive {
                txs.sort_unstable();
            }
            ffw_obs::event(
                "ft.redistribute",
                &format!(
                    "{} orphaned tx(s) {:?} round-robined over {} surviving group(s)",
                    orphaned.len(),
                    orphaned,
                    alive.len()
                ),
            );
            if ffw_obs::enabled() {
                ffw_obs::counter("ft.redistributed_txs").add(orphaned.len() as u64);
            }
        } else if !orphaned.is_empty() {
            ffw_obs::event(
                "ft.drop_groups",
                &format!(
                    "{} surviving group(s) below min_groups {}; dropping tx(s) {:?}",
                    alive.len(),
                    cfg.min_groups,
                    orphaned
                ),
            );
        }
        // No checkpoint yet (`None`): relaunch from scratch.
        state = match cfg.checkpoint.as_deref() {
            Some(path) => Checkpoint::load_latest(path, fingerprint)?.inspect(|ckpt| {
                ffw_obs::event(
                    "dist.checkpoint.load",
                    &format!("recovery from iter {} ({})", ckpt.next_iter, path.display()),
                );
            }),
            None => None,
        };
    }
}

/// What the grid context's end-of-iteration hook works with.
struct GridHook<'a> {
    ckpt_path: Option<&'a Path>,
    fingerprint: u64,
    lost_txs: &'a [usize],
    control: Option<&'a JobControl>,
}

/// One rank of the illumination-group × sub-tree grid as the DBIM loop sees
/// it: rank `r` is slot `r % p` of group `r / p`, owns the slot's pixel range
/// of the group's transmitters, and reaches its three kinds of peers through
/// `group_members` (inside the distributed `G0`), `slot_siblings` and
/// `all_members`.
struct GridContext<'a, 'c> {
    comm: &'c Comm,
    g0: DistMlfma<'c>,
    ws: Workspace,
    group_txs: &'a [Vec<usize>],
    run_txs: Vec<usize>,
    subtree_ranks: usize,
    /// The ranks holding this rank's pixels in the other groups.
    slot_siblings: Vec<usize>,
    all_members: Vec<usize>,
    warm_start: bool,
    hook: GridHook<'a>,
}

impl<'a, 'c> GridContext<'a, 'c> {
    fn new(
        comm: &'c Comm,
        plan: Arc<MlfmaPlan>,
        group_txs: &'a [Vec<usize>],
        subtree_ranks: usize,
        cfg: &DbimConfig,
        hook: GridHook<'a>,
    ) -> Self {
        let groups = group_txs.len();
        assert_eq!(comm.size(), groups * subtree_ranks, "rank grid mismatch");
        let (group, slot) = (comm.rank() / subtree_ranks, comm.rank() % subtree_ranks);
        let group_members: Vec<usize> = (0..subtree_ranks)
            .map(|s| group * subtree_ranks + s)
            .collect();
        let mut g0 = DistMlfma::new(comm, plan, group_members, true);
        if let Some(vc) = &cfg.verify {
            g0 = g0.with_verify(vc.rel_tol, vc.abs_floor);
        }
        GridContext {
            comm,
            g0,
            ws: Workspace::new(),
            group_txs,
            run_txs: group_txs.iter().flatten().copied().collect(),
            subtree_ranks,
            slot_siblings: (0..groups).map(|g| g * subtree_ranks + slot).collect(),
            all_members: (0..comm.size()).collect(),
            warm_start: cfg.warm_start,
            hook,
        }
    }

    /// Runs the loop on this rank, from the rank's slice of `init`.
    fn run(
        &self,
        setup: &ImagingSetup,
        measured: &[Vec<C64>],
        cfg: &DbimConfig,
        init: Option<&Checkpoint>,
    ) -> Result<DbimResult, FaultError> {
        let init = init.map(|c| {
            assert_eq!(c.object.len(), setup.n_pixels(), "checkpoint dimension");
            LoopState::from_checkpoint(c, self.pixels(), self.txs())
        });
        let rank = self.comm.rank();
        // Escalations the loop raises on this rank's behalf (a drift guard
        // out of rollbacks) must name this rank: the driver reads the rank
        // of a `ComputeCorruption` as primary death evidence.
        let own;
        let cfg = match &cfg.verify {
            Some(vc) if vc.rank != rank => {
                own = DbimConfig {
                    verify: Some(VerifyConfig { rank, ..vc.clone() }),
                    ..cfg.clone()
                };
                &own
            }
            _ => cfg,
        };
        dbim_loop(setup, self, measured, cfg, init).map_err(|e| match FaultError::from(e) {
            FaultError::KrylovBreakdown {
                iterations,
                rel_residual,
                detail,
                ..
            } => FaultError::KrylovBreakdown {
                rank,
                iterations,
                rel_residual,
                detail,
            },
            e => e,
        })
    }
}

impl<'c> RankContext for GridContext<'_, 'c> {
    type G0 = DistMlfma<'c>;
    fn g0(&self) -> &Self::G0 {
        &self.g0
    }
    fn workspace(&self) -> &Workspace {
        &self.ws
    }
    fn pixels(&self) -> Range<usize> {
        self.g0.partition().pixel_range.clone()
    }
    fn txs(&self) -> &[usize] {
        &self.group_txs[self.comm.rank() / self.subtree_ranks]
    }
    fn run_txs(&self) -> &[usize] {
        &self.run_txs
    }
    fn grid_pos(&self) -> (usize, usize) {
        let rank = self.comm.rank();
        (rank / self.subtree_ranks, rank % self.subtree_ranks)
    }
    fn sum_groups(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        try_allreduce_scalars(self.comm, &self.slot_siblings, vals)
    }
    fn sum_all(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        try_allreduce_scalars(self.comm, &self.all_members, vals)
    }

    /// Checkpoints the completed iteration, then takes the collective stop
    /// decision.
    fn end_of_iteration(&self, st: &LoopState) -> Result<Flow, FaultError> {
        let hook = &self.hook;
        let rank = self.comm.rank();
        // Rank 0 reports the boundary; with a checkpoint, once it has landed.
        let progress = (hook.control)
            .filter(|_| rank == 0)
            .map(|ctl| ctl.boundary_progress(st));
        match hook.ckpt_path {
            Some(path) => gather_and_save(
                self.comm,
                path,
                hook.fingerprint,
                self.group_txs,
                self.subtree_ranks,
                self.warm_start,
                &self.pixels(),
                self.g0.plan().n_pixels(),
                st,
                hook.lost_txs,
                progress,
            )?,
            None => progress.into_iter().for_each(|p| p()),
        }
        // --- controlled stop (cancel / pause / shutdown drain) ---
        // The decision must be collective: ranks read the stop intent at
        // different moments, so a raced local read would leave some ranks
        // inside the next iteration's collectives while others returned.
        // One extra allreduce per iteration, only when a control handle is
        // attached — uncontrolled runs keep their comm volume unchanged
        // (the BENCH_pr3 comm gate counts every message).
        let Some(ctl) = hook.control else {
            return Ok(Flow::Continue);
        };
        let intent = if ctl.stop_requested() { 1.0 } else { 0.0 };
        let mut flag = [c64(intent, 0.0)];
        self.sum_all(&mut flag)?;
        if flag[0].re <= 0.0 {
            return Ok(Flow::Continue);
        }
        if let (0, Some(path)) = (rank, hook.ckpt_path) {
            durable::flush(path)?;
        }
        Ok(Flow::Stop)
    }
}

/// Gathers the full reconstruction state to rank 0 and writes the
/// checkpoint. The partitioned vectors (`object`, `grad_prev`, `dir`) are
/// identical across groups, so only group 0's slots contribute them; the
/// warm-start fields are per transmitter, so every rank contributes the
/// slices of its own illumination block. All receives happen at rank 0 in a
/// fixed (group, tx, slot) order, so the gather is deterministic; rank 0
/// streams each field slice into the file as it arrives and holds only the
/// other slots' shared-vector slices, which the file needs vector by vector.
/// `then` runs once the checkpoint is durable.
#[expect(
    clippy::too_many_arguments,
    reason = "the gather needs the grid's layout and the loop state it writes, each its own value"
)]
fn gather_and_save(
    comm: &Comm,
    path: &Path,
    fingerprint: u64,
    group_txs: &[Vec<usize>],
    subtree_ranks: usize,
    warm_start: bool,
    cols: &Range<usize>,
    n_pixels: usize,
    st: &LoopState,
    lost_txs: &[usize],
    then: Option<Box<dyn FnOnce() + Send>>,
) -> Result<(), FaultError> {
    let LoopState {
        next_iter,
        object,
        grad_prev,
        dir,
        fields,
        residual_history,
    } = st;
    let rank = comm.rank();
    let p = subtree_ranks;
    let per = n_pixels / p;

    if rank != 0 {
        if rank < p {
            // Group-0 slot: contribute the shared solver state slices.
            let mut buf = Vec::with_capacity(3 * object.len());
            buf.extend_from_slice(object);
            buf.extend_from_slice(grad_prev);
            buf.extend_from_slice(dir);
            comm.send_checked(0, Tag::Ckpt as u32, Payload::C64(pack(&buf)))?;
        }
        if warm_start {
            for (i, _t) in group_txs[rank / p].iter().enumerate() {
                comm.send_checked(0, Tag::Ckpt as u32, Payload::C64(pack(&fields[i])))?;
            }
        }
        return Ok(());
    }

    let _span = ffw_obs::span("checkpoint.write");
    let re_im = |v: &C64| (v.re, v.im);
    let mut file = CheckpointFile::create(path)?;
    file.header(
        fingerprint,
        *next_iter as u32,
        lost_txs.iter().map(|&t| t as u32),
        residual_history,
    );
    assert_eq!(*cols, 0..per, "rank 0 holds the first slot's pixels");
    let mut slots = Vec::with_capacity(p - 1);
    for s in 1..p {
        let data = comm.recv_checked(s, Tag::Ckpt as u32)?.into_c64();
        assert_eq!(data.len(), 3 * per, "checkpoint gather slice length");
        slots.push(data);
    }
    for (k, own) in [object, grad_prev, dir].into_iter().enumerate() {
        file.u64(n_pixels as u64);
        file.pairs(own, re_im);
        for data in &slots {
            file.pairs(&data[k * per..(k + 1) * per], |&v| v);
        }
    }
    drop(slots);

    if warm_start {
        file.u64(group_txs.iter().map(Vec::len).sum::<usize>() as u64);
        for (g, txs) in group_txs.iter().enumerate() {
            for (i, &t) in txs.iter().enumerate() {
                file.u64(t as u64);
                file.u64(n_pixels as u64);
                for s in 0..p {
                    let sender = g * p + s;
                    if sender == 0 {
                        file.pairs(&fields[i], re_im);
                    } else {
                        let data = comm.recv_checked(sender, Tag::Ckpt as u32)?.into_c64();
                        assert_eq!(data.len(), per, "checkpoint field slice length");
                        file.pairs(&data, |&v| v);
                    }
                }
            }
        }
    } else {
        file.u64(0);
    }
    file.commit(then)?;
    ffw_obs::event(
        "dist.checkpoint.save",
        &format!("iter {next_iter} -> {}", path.display()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_fault::splitmix64;

    /// Rank `r`'s loop state of a `groups x p` grid over `n_pixels`, with
    /// `group_txs[r / p]`'s fields: any bit patterns, seeded by `r`.
    fn random_state(seed: u64, per: usize, n_fields: usize) -> LoopState {
        let mut s = seed;
        let mut c64s = |n: usize| -> Vec<C64> {
            (0..n)
                .map(|_| {
                    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let re = f64::from_bits(splitmix64(s));
                    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    c64(re, f64::from_bits(splitmix64(s)))
                })
                .collect()
        };
        LoopState {
            next_iter: 4,
            object: c64s(per),
            grad_prev: c64s(per),
            dir: c64s(per),
            fields: (0..n_fields).map(|_| c64s(per)).collect(),
            residual_history: vec![0.5, 0.25, f64::NAN, 0.125],
        }
    }

    /// Rank 0 streams the gather straight into the file: the bytes are the
    /// encoding of the checkpoint the old assemble-then-encode path built —
    /// shared vectors from group 0's slots, fields in (group, tx, slot)
    /// order — on 1x2 and 2x1 grids, with and without warm-start fields.
    #[test]
    fn the_streamed_gather_is_the_encoded_checkpoint() {
        let n_pixels = 4100;
        for (groups, p) in [(1, 2), (2, 1)] {
            for warm_start in [true, false] {
                let group_txs: Vec<Vec<usize>> = (0..groups)
                    .map(|g| (0..3).map(|i| 7 * g + i).collect())
                    .collect();
                let per = n_pixels / p;
                let states: Vec<LoopState> = (0..groups * p)
                    .map(|r| random_state(r as u64 * 1000 + 17, per, 3))
                    .collect();
                let path = std::env::temp_dir().join(format!(
                    "ffw-dist-gather-{groups}x{p}-{warm_start}-{}.ckpt",
                    std::process::id()
                ));
                let lost = [9usize];
                let outcomes = Runtime::new(groups * p)
                    .launch(|comm| {
                        let r = comm.rank();
                        let cols = (r % p) * per..(r % p + 1) * per;
                        gather_and_save(
                            &comm, &path, 0xfeed, &group_txs, p, warm_start, &cols, n_pixels,
                            &states[r], &lost, None,
                        )
                    })
                    .outcomes;
                for out in outcomes {
                    assert!(matches!(out, RankOutcome::Done(Ok(()))));
                }
                let joined = |pick: fn(&LoopState) -> &Vec<C64>, g: usize| -> Vec<(f64, f64)> {
                    (0..p)
                        .flat_map(|s| pack(pick(&states[g * p + s])))
                        .collect()
                };
                let want = Checkpoint {
                    fingerprint: 0xfeed,
                    next_iter: 4,
                    lost_txs: vec![9],
                    residual_history: states[0].residual_history.clone(),
                    object: joined(|st| &st.object, 0),
                    grad_prev: joined(|st| &st.grad_prev, 0),
                    dir: joined(|st| &st.dir, 0),
                    fields: if warm_start {
                        group_txs
                            .iter()
                            .enumerate()
                            .flat_map(|(g, txs)| {
                                let states = &states;
                                txs.iter().enumerate().map(move |(i, &t)| {
                                    let full = (0..p)
                                        .flat_map(|s| pack(&states[g * p + s].fields[i]))
                                        .collect();
                                    (t as u32, full)
                                })
                            })
                            .collect()
                    } else {
                        Vec::new()
                    },
                };
                durable::flush(&path).expect("flush");
                let got = std::fs::read(&path).expect("read");
                assert!(
                    got == want.encode(),
                    "{groups}x{p}, warm start {warm_start}"
                );
                std::fs::remove_file(&path).expect("remove");
            }
        }
    }
}

//! Batched BiCGStab: `B` independent systems sharing one operator, iterated
//! in lockstep so every operator application is a fused block apply.
//!
//! The paper's first parallel dimension is independent illuminations; this
//! solver is how the code exploits it. All `B` transmitter systems share
//! `A = I - G0 diag(O)`, so each Krylov step needs the *same* operator
//! applied to `B` different vectors — exactly what one fused panel apply
//! does in a single tree traversal.
//!
//! This is the only BiCGStab recurrence in the workspace. It is written
//! against the [`DistOp`] seam: on an in-process operator the whole vector
//! is local and [`DistOp::reduce`] is a no-op; on a sub-tree rank of the
//! distributed `G0` the vectors are slices and every norm and inner product
//! of a phase — for the whole active panel — rides in ONE reduction, the
//! paper's message fusion extended along the illumination dimension. A
//! single right-hand side is a panel of width 1 ([`crate::bicgstab`]), and
//! the drift guard and the right preconditioner are optional arguments.
//!
//! Numerics contract: columns never mix — per-column scalars, per-column
//! inner products, same branch structure — so a column's trajectory
//! (iterates, residuals, iteration count) is bit-identical to solving it
//! alone at any panel width, provided the operator's panel apply is
//! column-wise independent. Convergence masking: a column that converges
//! (or breaks down) *freezes* — its iterate is never touched again and it is
//! excluded from subsequent block applies — while the remaining columns keep
//! iterating until all are done. Every freeze decision is taken from
//! *reduced* scalars, which are bit-identical on all ranks sharing the
//! vectors, so those ranks narrow the active set identically and stay in
//! lockstep.
//!
//! Between the applies the kernel costs its memory traffic: every N-vector
//! is on lease from the caller's [`Workspace`], and the passes that walk the
//! same data are one loop (`s` with `‖s‖²`; `⟨t,s⟩` with `⟨t,t⟩`; `r` with
//! `‖r‖²`, the next `ρ` and the `x` update). Each sum keeps its own
//! accumulator and its element order, so fusing moves no bit.

use crate::krylov::{finite_c, BreakdownKind, IterConfig, SolveStats};
use crate::op::DistOp;
use crate::precond::Precond;
use crate::verify::DriftGuard;
use crate::workspace::{Leased, Workspace};
use ffw_fault::FaultError;
use ffw_numerics::vecops::{axpy, norm2_sqr, zdotc};
use ffw_numerics::{c64, C64};
use std::convert::Infallible;

/// Applies `a` to the selected columns of `input`, writing the matching
/// columns of `output`, via one fused block apply.
pub(crate) fn apply_cols<A: DistOp + ?Sized>(
    a: &A,
    cols: &[usize],
    input: &[Vec<C64>],
    output: &mut [Vec<C64>],
) -> Result<(), A::Error> {
    if cols.is_empty() {
        return Ok(());
    }
    let xs: Vec<&[C64]> = cols.iter().map(|&c| input[c].as_slice()).collect();
    let mut ys: Vec<Vec<C64>> = cols
        .iter()
        .map(|&c| std::mem::take(&mut output[c]))
        .collect();
    let applied = a.try_apply_block_local(&xs, &mut ys);
    for (&c, y) in cols.iter().zip(ys) {
        output[c] = y;
    }
    applied
}

/// One reduction for a whole phase: the per-column scalars of the active
/// panel ride in a single call. An empty panel reduces nothing (and sends
/// nothing).
fn reduce_cols<A: DistOp + ?Sized>(a: &A, vals: &mut [C64]) -> Result<(), A::Error> {
    if vals.is_empty() {
        Ok(())
    } else {
        a.reduce(vals)
    }
}

/// A per-column recurrence snapshot taken at a passed drift audit. Every
/// snapshot is a *top-of-loop* state (the next action is the rho inner
/// product), so a rolled-back column resumes the lockstep loop directly.
struct ColSnap<'w> {
    /// The iterate; a column's later snapshots overwrite its first in
    /// place.
    x: Leased<'w>,
    /// `r, p, v`, in that order — `None` in the snapshot of the start
    /// state, which is `r = r_hat`, `p = v = 0` by construction (most
    /// solves converge before their first periodic audit and never hold
    /// these).
    rpv: Option<Leased<'w>>,
    rho: C64,
    alpha: C64,
    omega: C64,
    res: f64,
    iters: usize,
    matvecs: usize,
}

/// `‖r_rec - (b - A x)‖ / ‖b‖`: how far the recursive residual has drifted
/// from the truth. One extra operator apply (charged to `verify_matvecs`)
/// and one reduction; its trigger is a reduced scalar, so on a rank grid the
/// audit is collective.
pub(crate) fn residual_drift<A: DistOp + ?Sized>(
    a: &A,
    b: &[C64],
    x: &[C64],
    r_rec: &[C64],
    b_norm: f64,
    ws: &Workspace,
) -> Result<f64, A::Error> {
    let n = b.len();
    let mut r_true = ws.lease(n, 1);
    a.try_apply_block_local(&[x], &mut r_true)?;
    let mut diff2 = 0.0f64;
    for i in 0..n {
        let d = r_rec[i] - (b[i] - r_true[0][i]);
        diff2 += d.norm_sqr();
    }
    let mut sum = [c64(diff2, 0.0)];
    a.reduce(&mut sum)?;
    Ok(sum[0].re.sqrt() / b_norm)
}

/// Per-column recurrence state of one sweep: everything the freeze, snapshot
/// and rollback bookkeeping touches, so those are written once.
struct Panel<'x, 'w> {
    ws: &'w Workspace,
    xs: &'x mut [Vec<C64>],
    r: Leased<'w>,
    /// The shadow residual: `r` as it was at the start of the sweep.
    r_hat: Leased<'w>,
    p: Leased<'w>,
    v: Leased<'w>,
    rho: Vec<C64>,
    alpha: Vec<C64>,
    omega: Vec<C64>,
    /// This rank's share of the next `⟨r̂, r⟩`, left by the pass that wrote
    /// `r`; `None` when `r` came from anywhere else.
    rho_next: Vec<Option<C64>>,
    /// Last finite relative residual.
    res: Vec<f64>,
    iters: Vec<usize>,
    matvecs: Vec<usize>,
    // Drift-guard bookkeeping (all zeros / `None` without a guard).
    verify_mv: Vec<usize>,
    rolled: Vec<usize>,
    rollbacks: Vec<u32>,
    snaps: Vec<Option<ColSnap<'w>>>,
    stats: Vec<Option<SolveStats>>,
    /// Columns frozen by a breakdown, with the reason.
    broken: Vec<(usize, BreakdownKind)>,
}

impl Panel<'_, '_> {
    /// Freezes column `c` with the given outcome.
    fn finish(&mut self, c: usize, rel_residual: f64, converged: bool) {
        self.stats[c] = Some(SolveStats {
            verify_matvecs: self.verify_mv[c],
            rolled_back: self.rolled[c],
            iterations: self.iters[c],
            matvecs: self.matvecs[c],
            rel_residual,
            converged,
        });
    }

    /// Freezes column `c` unconverged at its last finite iterate and
    /// residual after a breakdown.
    fn break_down(&mut self, c: usize, kind: BreakdownKind) {
        ffw_obs::event(
            "solver.breakdown",
            &format!(
                "bicgstab_block column {c}: {kind} at iter {}",
                self.iters[c]
            ),
        );
        self.broken.push((c, kind));
        self.finish(c, self.res[c], false);
    }

    /// Records column `c`'s top-of-loop state as its rollback target.
    fn snapshot(&mut self, c: usize) {
        let (ws, n) = (self.ws, self.xs[c].len());
        let snap = self.snaps[c].get_or_insert_with(|| ColSnap {
            x: ws.lease(n, 1),
            rpv: None,
            rho: C64::ZERO,
            alpha: C64::ZERO,
            omega: C64::ZERO,
            res: 0.0,
            iters: 0,
            matvecs: 0,
        });
        snap.x[0].copy_from_slice(&self.xs[c]);
        if self.iters[c] > 0 {
            let rpv = snap.rpv.get_or_insert_with(|| ws.lease(n, 3));
            let state = [&self.r[c], &self.p[c], &self.v[c]];
            for (kept, live) in rpv.iter_mut().zip(state) {
                kept.copy_from_slice(live);
            }
        }
        snap.rho = self.rho[c];
        snap.alpha = self.alpha[c];
        snap.omega = self.omega[c];
        snap.res = self.res[c];
        snap.iters = self.iters[c];
        snap.matvecs = self.matvecs[c];
    }

    /// Restores column `c` to its last verified snapshot after a failed
    /// audit. Applies spent on the discarded segment move from `matvecs` to
    /// `verify_matvecs`; the discarded steps are counted in `rolled`.
    /// Returns `true` if the column may replay (rollback budget left); with
    /// the budget spent the guard escalates and the column is frozen
    /// unconverged at the restored — last verified — iterate.
    fn recover(&mut self, g: &DriftGuard, c: usize) -> bool {
        g.record_detected();
        let snap = self.snaps[c]
            .as_ref()
            .expect("guarded columns have a snapshot");
        let steps = self.iters[c] - snap.iters;
        self.verify_mv[c] += self.matvecs[c] - snap.matvecs;
        self.rolled[c] += steps;
        self.xs[c].copy_from_slice(&snap.x[0]);
        match &snap.rpv {
            Some(rpv) => {
                let state = [&mut self.r[c], &mut self.p[c], &mut self.v[c]];
                for (live, kept) in state.into_iter().zip(rpv.iter()) {
                    live.copy_from_slice(kept);
                }
            }
            None => {
                self.r[c].copy_from_slice(&self.r_hat[c]);
                self.p[c].fill(C64::ZERO);
                self.v[c].fill(C64::ZERO);
            }
        }
        self.rho[c] = snap.rho;
        self.alpha[c] = snap.alpha;
        self.omega[c] = snap.omega;
        self.rho_next[c] = None;
        self.res[c] = snap.res;
        self.iters[c] = snap.iters;
        self.matvecs[c] = snap.matvecs;
        if self.rollbacks[c] < g.max_rollbacks {
            self.rollbacks[c] += 1;
            g.record_rollback(steps as u64);
            return true;
        }
        g.record_escalated();
        ffw_obs::event(
            "solver.breakdown",
            &format!(
                "bicgstab_block column {c}: residual drift persisted through \
                 {} rollback(s); surfacing unconverged",
                self.rollbacks[c]
            ),
        );
        self.finish(c, self.res[c], false);
        false
    }
}

/// Solves `A xs[c] = bs[c]` for all `B` columns with lockstep BiCGStab and
/// per-column convergence masking. Each `xs[c]` carries its initial guess
/// (zero, or a warm start) and is overwritten with that column's solution.
///
/// A breakdown (rho underflow, NaN/Inf iterate) freezes *only* that column,
/// which reports honest unconverged [`SolveStats`] with its iterate left at
/// the last finite value; sibling columns are unaffected and keep iterating.
///
/// The solve runs in a [`Workspace`] of its own; callers with more than one
/// solve to do hold one and call [`bicgstab_block_with`].
pub fn bicgstab_block<A: DistOp<Error = Infallible> + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Vec<SolveStats> {
    bicgstab_block_with(a, bs, xs, cfg, None, None, &Workspace::new())
}

/// Picks the vectors an apply consumes: the preconditioned copies when a
/// preconditioner is attached, the recurrence vectors themselves otherwise.
fn applied<'a>(
    precond: Option<&dyn Precond>,
    plain: &'a [Vec<C64>],
    hat: &'a [Vec<C64>],
) -> &'a [Vec<C64>] {
    if precond.is_some() {
        hat
    } else {
        plain
    }
}

/// [`bicgstab_block`] plus the kernel's two optional riders, on an operator
/// that cannot fail and in the caller's workspace. A broken-down column is
/// frozen and reported unconverged; [`try_bicgstab_block`] adds the retry
/// policy on top.
///
/// **`guard`** — a [`DriftGuard`] audits every column: the true residual
/// `b - A x` is recomputed every [`DriftGuard::period`] update steps *and*
/// at every would-be convergence, and recursive-vs-true divergence beyond
/// [`DriftGuard::rel_tol`] rolls the column back to its last verified
/// snapshot and replays. Transient corruption replays clean (the final
/// iterate is bit-identical to an uncorrupted solve); deterministic
/// corruption re-detects until [`DriftGuard::max_rollbacks`] is exhausted,
/// at which point the guard escalates (`guard.escalated() > 0`) and the
/// column is surfaced unconverged at its last verified iterate — never
/// silently converged. On a clean run the audits touch no recurrence state,
/// so every column's trajectory — iterates, residuals, `iterations`,
/// `matvecs` — is bit-identical to the unguarded solve; the audit applies
/// are reported in `verify_matvecs`.
///
/// **`precond`** — right preconditioning in the form that updates `x`
/// directly (Templates, ch. 2.3.8): the applies see `M p` and `M s`, the
/// residuals stay true residuals of `A x = b`, so convergence reporting,
/// the non-finite/rho freezes and the drift audits are the same code as the
/// plain solve. With `None` the applies read `p` and `s` by reference and
/// the arithmetic is that of the unpreconditioned recurrence. On a rank
/// grid the preconditioner acts on this rank's slice.
pub fn bicgstab_block_with<A: DistOp<Error = Infallible> + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    precond: Option<&dyn Precond>,
    ws: &Workspace,
) -> Vec<SolveStats> {
    let Ok((stats, _broken)) = sweep(a, bs, xs, cfg, guard, precond, ws);
    stats
}

/// The kernel under the breakdown policy every DBIM solve runs with, on any
/// [`DistOp`]: a column that breaks down (rho underflow, NaN/Inf) is
/// retried once from its last finite iterate after the lockstep sweep — a
/// fresh width-1 sweep on the remaining iteration budget, which re-derives
/// `r` and `r_hat` from the current `x` and so leaves the degenerate Krylov
/// directions behind while keeping the progress made; a column whose retry
/// breaks down too surfaces [`FaultError::KrylovBreakdown`] (rank 0; a rank
/// grid stamps its own). The broken set derives from reduced scalars, so the
/// retries stay collective across the ranks sharing the vectors. An operator
/// failure aborts the whole panel with the originating error.
pub fn try_bicgstab_block<A: DistOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    precond: Option<&dyn Precond>,
    ws: &Workspace,
) -> Result<Vec<SolveStats>, FaultError>
where
    FaultError: From<A::Error>,
{
    let (mut stats, mut broken) = sweep(a, bs, xs, cfg, guard, precond, ws)?;
    broken.sort_by_key(|b| b.0);
    let breakdown =
        |st: &SolveStats, kind: BreakdownKind, restarts: u32| FaultError::KrylovBreakdown {
            rank: 0,
            iterations: st.iterations,
            rel_residual: st.rel_residual,
            detail: format!("{kind} ({restarts} restart(s) attempted)"),
        };
    for (c, kind) in broken {
        let first = stats[c].clone();
        let x_finite = xs[c].iter().all(|v| finite_c(*v));
        if !(first.iterations < cfg.max_iters && x_finite) {
            return Err(breakdown(&first, kind, 0));
        }
        let rest = IterConfig {
            max_iters: cfg.max_iters - first.iterations,
            ..cfg
        };
        let (again, broken_again) = sweep(a, &bs[c..=c], &mut xs[c..=c], rest, guard, precond, ws)?;
        let total = SolveStats {
            iterations: first.iterations + again[0].iterations,
            matvecs: first.matvecs + again[0].matvecs,
            verify_matvecs: first.verify_matvecs + again[0].verify_matvecs,
            rolled_back: first.rolled_back + again[0].rolled_back,
            ..again[0].clone()
        };
        if let Some(&(_, kind)) = broken_again.first() {
            return Err(breakdown(&total, kind, 1));
        }
        stats[c] = total;
    }
    Ok(stats)
}

/// Largest `‖s‖ + |ω| ‖t‖` for which the fused residual pass may move `x`
/// before the new residual is known: below it every term of `r = s − ωt` is
/// finite and `‖r‖²` (at most the bound squared) cannot overflow, so the
/// step is certain to be judged finite.
const SAFE_STEP_NORM: f64 = 1e150;

/// One lockstep sweep over a panel: fresh residuals from the current `xs`,
/// then iterate until every column has converged, spent the budget in `cfg`,
/// or broken down. Returns the per-column stats and the broken columns with
/// the reason; a broken column's `xs[c]` is left at its last finite iterate.
#[allow(clippy::type_complexity)]
fn sweep<A: DistOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    precond: Option<&dyn Precond>,
    ws: &Workspace,
) -> Result<(Vec<SolveStats>, Vec<(usize, BreakdownKind)>), A::Error> {
    let nb = bs.len();
    assert_eq!(xs.len(), nb, "solution block width mismatch");
    if nb == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    let n = a.n_local();
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
    }
    let _span = ffw_obs::span("solver.bicgstab");
    if ffw_obs::enabled() {
        ffw_obs::histogram("solver.bicgstab.panel_width").record(nb as u64);
    }

    // ‖b‖ of every column in one reduction; zero right-hand sides are
    // solved exactly by x = 0. A panel of nothing else (the adjoint solves
    // of a first DBIM iteration) holds no vector at all.
    let mut b_sq: Vec<C64> = bs.iter().map(|b| c64(norm2_sqr(b), 0.0)).collect();
    a.reduce(&mut b_sq)?;
    let b_norm: Vec<f64> = b_sq.iter().map(|sq| sq.re.sqrt()).collect();
    let live: Vec<usize> = (0..nb).filter(|&c| b_norm[c] != 0.0).collect();
    let held = if live.is_empty() { 0 } else { nb };
    let mut st = Panel {
        ws,
        xs,
        r: ws.lease(n, held),
        r_hat: ws.lease(n, held),
        p: ws.lease(n, held),
        v: ws.lease(n, held),
        rho: vec![C64::ONE; nb],
        alpha: vec![C64::ONE; nb],
        omega: vec![C64::ONE; nb],
        rho_next: vec![None; nb],
        res: vec![0.0; nb],
        iters: vec![0; nb],
        matvecs: vec![0; nb],
        verify_mv: vec![0; nb],
        rolled: vec![0; nb],
        rollbacks: vec![0; nb],
        snaps: (0..nb).map(|_| None).collect(),
        stats: vec![None; nb],
        broken: Vec::new(),
    };
    let mut rho_new = vec![C64::ZERO; nb];
    let mut s_norm = vec![0.0f64; nb];
    // Whether the last residual pass of a column moved its x as well.
    let mut moved = vec![false; nb];
    let mut s = ws.lease(n, held);
    let mut t = ws.lease(n, held);
    // M p and M s: only a preconditioned solve owns (and fills) them.
    let hat_cols = if precond.is_some() { held } else { 0 };
    let mut p_hat = ws.lease(n, hat_cols);
    let mut s_hat = ws.lease(n, hat_cols);
    for c in (0..nb).filter(|c| !live.contains(c)) {
        st.xs[c].fill(C64::ZERO);
        st.finish(c, 0.0, true);
    }

    // Fresh residuals r = b - A x, one fused apply over all live columns;
    // then r_hat = r, ‖r‖² and the first ρ in one pass per column. Leased
    // vectors hold what their last user left, and the first p-update reads
    // p and v.
    apply_cols(a, &live, st.xs, &mut st.r)?;
    let mut r_sq: Vec<C64> = Vec::with_capacity(live.len());
    for &c in &live {
        st.matvecs[c] += 1;
        st.p[c].fill(C64::ZERO);
        st.v[c].fill(C64::ZERO);
        let (mut sq, mut rho) = (0.0f64, C64::ZERO);
        for ((ri, hi), bi) in st.r[c].iter_mut().zip(st.r_hat[c].iter_mut()).zip(bs[c]) {
            *ri = *bi - *ri;
            *hi = *ri;
            sq += ri.norm_sqr();
            rho = hi.conj().mul_add(*ri, rho);
        }
        st.rho_next[c] = Some(rho);
        r_sq.push(c64(sq, 0.0));
    }
    reduce_cols(a, &mut r_sq)?;
    let mut active: Vec<usize> = Vec::with_capacity(live.len());
    for (k, &c) in live.iter().enumerate() {
        let res = r_sq[k].re.sqrt() / b_norm[c];
        if !res.is_finite() {
            st.res[c] = f64::NAN;
            st.break_down(c, BreakdownKind::NonFinite);
            continue;
        }
        st.res[c] = res;
        ffw_obs::series_push("solver.bicgstab.residual", res);
        if res < cfg.tol {
            st.finish(c, res, true);
            continue;
        }
        if guard.is_some() {
            // Baseline snapshot: the fresh residual *is* the true residual,
            // so the cycle-start state is verified by construction and is
            // the rollback target until the first periodic audit passes.
            st.snapshot(c);
        }
        active.push(c);
    }

    while !active.is_empty() {
        // Columns rolled back mid-pass re-enter the lockstep loop here.
        let mut resumed: Vec<usize> = Vec::new();
        // Budget check (deterministic, identical on every rank); columns
        // freezing here or at the rho check skip the fused applies.
        active.retain(|&c| {
            let in_budget = st.iters[c] < cfg.max_iters;
            if !in_budget {
                st.finish(c, st.res[c], false);
            }
            in_budget
        });

        // rho = <r_hat, r>, one reduction for the panel; the pass that
        // wrote r already summed this rank's share of it.
        let mut dots: Vec<C64> = active
            .iter()
            .map(|&c| {
                st.rho_next[c]
                    .take()
                    .unwrap_or_else(|| zdotc(&st.r_hat[c], &st.r[c]))
            })
            .collect();
        reduce_cols(a, &mut dots)?;
        let mut after_rho = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let rn = dots[k];
            if !finite_c(rn) {
                st.break_down(c, BreakdownKind::NonFinite);
                continue;
            }
            if rn.abs() < 1e-300 {
                st.break_down(c, BreakdownKind::RhoZero);
                continue;
            }
            rho_new[c] = rn;
            st.iters[c] += 1;
            let beta = (rn / st.rho[c]) * (st.alpha[c] / st.omega[c]);
            for i in 0..n {
                st.p[c][i] = st.r[c][i] + beta * (st.p[c][i] - st.omega[c] * st.v[c][i]);
            }
            after_rho.push(c);
        }
        active = after_rho;

        // v = A (M p), fused; then alpha, s = r - alpha v with ‖s‖² in the
        // same pass, and the early s-norm exit.
        if let Some(m) = precond {
            for &c in &active {
                m.apply(&st.p[c], &mut p_hat[c]);
            }
        }
        apply_cols(a, &active, applied(precond, &st.p, &p_hat), &mut st.v)?;
        let mut dots: Vec<C64> = active
            .iter()
            .map(|&c| zdotc(&st.r_hat[c], &st.v[c]))
            .collect();
        reduce_cols(a, &mut dots)?;
        let mut s_sq: Vec<C64> = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            st.matvecs[c] += 1;
            st.alpha[c] = rho_new[c] / dots[k];
            let mut sq = 0.0f64;
            for (si, (ri, vi)) in s[c].iter_mut().zip(st.r[c].iter().zip(&st.v[c])) {
                *si = *ri - st.alpha[c] * *vi;
                sq += si.norm_sqr();
            }
            s_sq.push(c64(sq, 0.0));
        }
        reduce_cols(a, &mut s_sq)?;
        let mut after_s = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            s_norm[c] = s_sq[k].re.sqrt();
            let rel = s_norm[c] / b_norm[c];
            if rel >= cfg.tol || rel.is_nan() {
                after_s.push(c);
                continue;
            }
            axpy(
                st.alpha[c],
                &applied(precond, &st.p, &p_hat)[c],
                &mut st.xs[c],
            );
            if let Some(g) = guard {
                // Audit the would-be convergence: the recursive residual
                // here is `s` and the candidate iterate is x + alpha p.
                st.verify_mv[c] += 1;
                let drift = residual_drift(a, bs[c], &st.xs[c], &s[c], b_norm[c], ws)?;
                if !(drift.is_finite() && drift <= g.rel_tol) {
                    if st.recover(g, c) {
                        resumed.push(c);
                    }
                    continue;
                }
            }
            ffw_obs::series_push("solver.bicgstab.residual", rel);
            st.finish(c, rel, true);
        }
        active = after_s;

        // t = A (M s), fused; then omega (both dots of every column from one
        // pass, in one reduction), the residual update and check, and the x
        // update.
        if let Some(m) = precond {
            for &c in &active {
                m.apply(&s[c], &mut s_hat[c]);
            }
        }
        apply_cols(a, &active, applied(precond, &s, &s_hat), &mut t)?;
        let mut dots: Vec<C64> = Vec::with_capacity(2 * active.len());
        for &c in &active {
            let (mut ts, mut tt) = (C64::ZERO, C64::ZERO);
            for (ti, si) in t[c].iter().zip(&s[c]) {
                ts = ti.conj().mul_add(*si, ts);
                tt = ti.conj().mul_add(*ti, tt);
            }
            dots.push(ts);
            dots.push(tt);
        }
        reduce_cols(a, &mut dots)?;
        // The step is judged by its residual *before* x moves, so a
        // non-finite update never poisons the iterate (the historical
        // silent-divergence bug: NaN residuals fail every `<` comparison, so
        // the loop ran to max_iters and reported a NaN x as if it were a
        // best effort). Where the reduced scalars already prove the new
        // residual finite, x moves in the pass that writes r; otherwise it
        // waits for the judgement.
        let mut r_sq: Vec<C64> = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            st.matvecs[c] += 1;
            st.omega[c] = dots[2 * k] / dots[2 * k + 1];
            let (alpha, omega) = (st.alpha[c], st.omega[c]);
            moved[c] = s_norm[c] + omega.abs() * dots[2 * k + 1].re.sqrt() < SAFE_STEP_NORM;
            let (dp, ds) = (
                &applied(precond, &st.p, &p_hat)[c],
                &applied(precond, &s, &s_hat)[c],
            );
            let (mut sq, mut rho) = (0.0f64, C64::ZERO);
            let mut residual = |ri: &mut C64, si: &C64, ti: &C64, hi: &C64| {
                *ri = *si - omega * *ti;
                sq += ri.norm_sqr();
                rho = hi.conj().mul_add(*ri, rho);
            };
            let rows = st.r[c].iter_mut().zip(s[c].iter().zip(&t[c]));
            let rows = rows.zip(&st.r_hat[c]);
            if moved[c] {
                let steps = st.xs[c].iter_mut().zip(dp.iter().zip(ds));
                for (((ri, (si, ti)), hi), (xi, (pi, di))) in rows.zip(steps) {
                    residual(ri, si, ti, hi);
                    *xi += alpha * *pi + omega * *di;
                }
            } else {
                for ((ri, (si, ti)), hi) in rows {
                    residual(ri, si, ti, hi);
                }
            }
            st.rho_next[c] = Some(rho);
            r_sq.push(c64(sq, 0.0));
        }
        reduce_cols(a, &mut r_sq)?;
        let mut after_update = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let res_new = r_sq[k].re.sqrt() / b_norm[c];
            if !res_new.is_finite() {
                // The iterate does not contain this step, so the step is
                // not counted (`SolveStats` contract: iterations = update
                // steps reflected in the iterate).
                debug_assert!(!moved[c], "a step proven finite was judged non-finite");
                st.iters[c] -= 1;
                st.break_down(c, BreakdownKind::NonFinite);
                continue;
            }
            if !moved[c] {
                let (dp, ds) = (
                    &applied(precond, &st.p, &p_hat)[c],
                    &applied(precond, &s, &s_hat)[c],
                );
                for (xi, (pi, si)) in st.xs[c].iter_mut().zip(dp.iter().zip(ds)) {
                    *xi += st.alpha[c] * *pi + st.omega[c] * *si;
                }
            }
            st.res[c] = res_new;
            ffw_obs::series_push("solver.bicgstab.residual", res_new);
            let converged = res_new < cfg.tol;
            if !converged {
                st.rho[c] = rho_new[c];
            }
            // Audits: every would-be convergence, and every `period` steps
            // at a top-of-loop state. A pass at a periodic audit refreshes
            // the rollback snapshot; a failure rolls back (or, with the
            // budget exhausted, escalates and freezes).
            if let Some(g) = guard {
                if converged || st.iters[c].is_multiple_of(g.period) {
                    st.verify_mv[c] += 1;
                    let drift = residual_drift(a, bs[c], &st.xs[c], &st.r[c], b_norm[c], ws)?;
                    if !(drift.is_finite() && drift <= g.rel_tol) {
                        if st.recover(g, c) {
                            resumed.push(c);
                        }
                        continue;
                    }
                    if !converged {
                        st.snapshot(c);
                    }
                }
            }
            if converged {
                st.finish(c, res_new, true);
            } else {
                after_update.push(c);
            }
        }
        active = after_update;
        if !resumed.is_empty() {
            active.extend(resumed);
            active.sort_unstable();
        }
    }

    let out: Vec<SolveStats> = st
        .stats
        .into_iter()
        .map(|s| s.expect("every column finalized"))
        .collect();
    if ffw_obs::enabled() {
        for col in &out {
            ffw_obs::counter("solver.bicgstab.solves").inc();
            ffw_obs::counter("solver.bicgstab.iters").add(col.iterations as u64);
            ffw_obs::counter("solver.bicgstab.matvecs").add(col.matvecs as u64);
            ffw_obs::histogram("solver.bicgstab.iters_per_solve").record(col.iterations as u64);
        }
    }
    Ok((out, st.broken))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::bicgstab;
    use crate::op::DiagonalOp;
    use ffw_numerics::c64;
    use ffw_numerics::linalg::Matrix;

    fn random_mat(n: usize, seed: u64, diag_boost: f64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |r, c| {
            let mut v = c64(next(), next());
            if r == c {
                v += diag_boost;
            }
            v
        })
    }

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
        let m = random_mat(n, seed, 0.0);
        (0..n).map(|i| m.at(0, i)).collect()
    }

    #[test]
    fn a_column_is_bit_identical_at_every_panel_width() {
        // Width 1 is a panel like any other: column `b` solved alone, in a
        // panel of 3, of 8 and of 9 must come out bit-for-bit the same, with
        // the same stats — on one workspace, so a narrower panel runs in
        // the vectors a wider one left behind, and twice over.
        let n = 48;
        let a = random_mat(n, 3, 7.0);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let bs: Vec<Vec<C64>> = (0..9).map(|i| random_vec(n, 11 + i)).collect();
        let ws = Workspace::new();
        let solve = |width: usize| {
            let b_refs: Vec<&[C64]> = bs[..width].iter().map(|b| b.as_slice()).collect();
            let mut xs = vec![vec![C64::ZERO; n]; width];
            let stats = bicgstab_block_with(&a, &b_refs, &mut xs, cfg, None, None, &ws);
            (xs, stats)
        };
        let (x9, s9) = solve(9);
        for width in [1usize, 3, 8, 9, 1, 8, 3] {
            let (xs, stats) = solve(width);
            assert_eq!(stats.len(), width);
            for c in 0..width {
                assert_eq!(stats[c], s9[c], "column {c} stats at width {width}");
                assert_eq!(xs[c], x9[c], "column {c} iterate at width {width}");
            }
        }
        let mut fresh = vec![vec![C64::ZERO; n]];
        let alone = bicgstab_block(&a, &[&bs[0]], &mut fresh, cfg);
        assert_eq!(alone[0], s9[0]);
        assert_eq!(fresh[0], x9[0], "a fresh workspace gives the same bits");
    }

    #[test]
    fn breakdown_iteration_count_reproduces_the_returned_iterate() {
        // SolveStats contract: a phase-3 rollback must not be counted, so a
        // clean replay capped at the reported `iterations` lands on the
        // identical iterate.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, 77, 6.0);
        let b = random_vec(n, 79);
        let calls = AtomicUsize::new(0);
        let poisoned = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            // Applies 1..=5 healthy; apply 6 (the `A p` of iteration 3)
            // poisons the step with NaN, forcing the phase-3 rollback.
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 6 {
                out.iter_mut().for_each(|o| *o = c64(f64::NAN, f64::NAN));
            } else {
                use crate::op::LinOp;
                m.apply(v, out);
            }
        });
        let cfg = IterConfig {
            tol: 1e-14,
            max_iters: 50,
        };
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block(&poisoned, &[&b], &mut xs, cfg);
        assert!(!stats[0].converged);
        assert_eq!(stats[0].iterations, 2, "rolled-back step must not count");

        let mut xs_replay = vec![vec![C64::ZERO; n]];
        let replay = bicgstab_block(
            &m,
            &[&b],
            &mut xs_replay,
            IterConfig {
                tol: 1e-14,
                max_iters: stats[0].iterations,
            },
        );
        assert_eq!(replay[0].iterations, stats[0].iterations);
        assert_eq!(xs_replay[0], xs[0], "replay at the reported count differs");
    }

    #[test]
    fn every_column_matches_its_own_scalar_solve() {
        let n = 40;
        let a = random_mat(n, 5, 8.0);
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 200,
        };
        let bs: Vec<Vec<C64>> = (0..5).map(|i| random_vec(n, 100 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut xs = vec![vec![C64::ZERO; n]; 5];
        let block = bicgstab_block(&a, &b_refs, &mut xs, cfg);
        for (c, b) in bs.iter().enumerate() {
            let mut x_scalar = vec![C64::ZERO; n];
            let scalar = bicgstab(&a, b, &mut x_scalar, cfg);
            assert_eq!(block[c], scalar, "column {c} stats");
            assert_eq!(xs[c], x_scalar, "column {c} iterate");
        }
    }

    #[test]
    fn frozen_column_is_never_updated() {
        // One easy RHS (exact solution as the initial guess: converges at
        // iteration 0 and freezes immediately) alongside one hard RHS that
        // needs real iterations. The frozen column's iterate must come out
        // bit-identical to the value it froze at.
        let n = 32;
        let a = random_mat(n, 9, 6.0);
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 200,
        };
        let x_true = random_vec(n, 21);
        let mut b_easy = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b_easy);
        let b_hard = random_vec(n, 23);
        let mut xs = vec![x_true.clone(), vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_easy, &b_hard], &mut xs, cfg);
        assert!(stats[0].converged);
        assert_eq!(stats[0].iterations, 0, "easy column converges up front");
        assert_eq!(xs[0], x_true, "frozen column must not be touched");
        assert!(stats[1].converged, "{:?}", stats[1]);
        assert!(stats[1].iterations > 0, "hard column actually iterated");
    }

    #[test]
    fn breakdown_in_one_column_does_not_poison_siblings() {
        // diag(0, 2, 3, ...) is singular in its first coordinate only: a RHS
        // supported there breaks down (alpha divides by zero), while a RHS in
        // the operator's range solves fine. The sibling must match its scalar
        // solve bit-for-bit and the broken column must stay finite.
        let n = 12;
        let mut d = vec![C64::ZERO; n];
        for (i, v) in d.iter_mut().enumerate().skip(1) {
            *v = c64(1.0 + i as f64, 0.0);
        }
        let a = DiagonalOp(d.clone());
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 50,
        };
        let mut b_bad = vec![C64::ZERO; n];
        b_bad[0] = c64(1.0, 0.5);
        let mut b_good = vec![C64::ZERO; n];
        for (i, v) in b_good.iter_mut().enumerate().skip(1) {
            *v = c64(0.3 * i as f64, -0.1);
        }
        let mut xs = vec![vec![C64::ZERO; n], vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_bad, &b_good], &mut xs, cfg);
        assert!(!stats[0].converged, "{:?}", stats[0]);
        assert!(
            xs[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "broken column's iterate must be rolled back to a finite value"
        );
        let mut x_scalar = vec![C64::ZERO; n];
        let scalar = bicgstab(&a, &b_good, &mut x_scalar, cfg);
        assert_eq!(stats[1], scalar, "sibling stats unaffected by breakdown");
        assert_eq!(xs[1], x_scalar, "sibling iterate unaffected by breakdown");
    }

    /// The breakdown policy on an in-process operator (the serial context):
    /// a column that goes non-finite is rolled back to its last finite
    /// iterate and retried once as a width-1 panel, siblings untouched; if
    /// the retry breaks down too the solve surfaces `KrylovBreakdown` naming
    /// one restart. (`ffw-dist` runs the same scenario on a fallible
    /// operator.)
    #[test]
    fn broken_column_retries_once_then_surfaces_breakdown() {
        use ffw_numerics::vecops::rel_diff;
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// A dense operator whose column 0 returns NaN on the block applies
        /// selected by `poison` (1-based call index).
        struct Flaky<F: Fn(usize) -> bool + Sync> {
            m: Matrix,
            calls: AtomicUsize,
            poison: F,
        }
        impl<F: Fn(usize) -> bool + Sync> crate::op::LinOp for Flaky<F> {
            fn dim_out(&self) -> usize {
                self.m.rows()
            }
            fn dim_in(&self) -> usize {
                self.m.cols()
            }
            fn apply(&self, x: &[C64], y: &mut [C64]) {
                let mut ys = [vec![C64::ZERO; y.len()]];
                crate::op::BlockLinOp::apply_block(self, &[x], &mut ys);
                y.copy_from_slice(&ys[0]);
            }
        }
        impl<F: Fn(usize) -> bool + Sync> crate::op::BlockLinOp for Flaky<F> {
            fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
                let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    self.m.matvec(x, y);
                }
                if (self.poison)(call) {
                    ys[0].iter_mut().for_each(|v| *v = c64(f64::NAN, f64::NAN));
                }
            }
        }
        let n = 24;
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 100,
        };
        let bs = [random_vec(n, 31), random_vec(n, 33)];
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let solve = |poison: fn(usize) -> bool| {
            let op = Flaky {
                m: random_mat(n, 7, 6.0),
                calls: AtomicUsize::new(0),
                poison,
            };
            let mut xs = vec![vec![C64::ZERO; n]; 2];
            let out = try_bicgstab_block(&op, &b_refs, &mut xs, cfg, None, None, &Workspace::new());
            (out, xs)
        };
        let (clean, x_clean) = solve(|_| false);
        // block apply 4 is the `A p` of the panel's second iteration
        let (transient, x_transient) = solve(|call| call == 4);
        let (persistent, _) = solve(|call| call >= 4);
        let clean = clean.expect("clean solve");
        let transient = transient.expect("one retry recovers a transient breakdown");
        assert!(clean.iter().chain(&transient).all(|s| s.converged));
        assert!(
            clean[0].iterations > 2,
            "the poisoned apply must be reached"
        );
        assert_eq!(transient[1], clean[1], "sibling column stats untouched");
        assert_eq!(
            x_transient[1], x_clean[1],
            "sibling column iterate untouched"
        );
        assert!(
            rel_diff(&x_transient[0], &x_clean[0]) < 1e-8,
            "same solution"
        );
        match persistent {
            Err(FaultError::KrylovBreakdown { detail, .. }) => {
                assert!(detail.contains("1 restart(s) attempted)"), "{detail}")
            }
            other => panic!("expected KrylovBreakdown, got {other:?}"),
        }
    }

    #[test]
    fn zero_rhs_column_short_circuits() {
        let n = 10;
        let a = random_mat(n, 13, 5.0);
        let b_zero = vec![C64::ZERO; n];
        let b_live = random_vec(n, 17);
        let mut xs = vec![random_vec(n, 19), vec![C64::ZERO; n]];
        let stats = bicgstab_block(&a, &[&b_zero, &b_live], &mut xs, IterConfig::default());
        assert!(stats[0].converged);
        assert_eq!(stats[0].iterations, 0);
        assert_eq!(stats[0].matvecs, 0);
        assert!(xs[0].iter().all(|v| v.abs() == 0.0));
        assert!(stats[1].converged);
    }

    #[test]
    fn empty_block_is_a_noop() {
        let a = random_mat(4, 1, 5.0);
        let stats = bicgstab_block(&a, &[], &mut [], IterConfig::default());
        assert!(stats.is_empty());
    }

    #[test]
    fn guarded_clean_run_is_bit_identical_and_audited() {
        // Audits read state but never write it, so a corruption-free guarded
        // solve must reproduce the unguarded trajectory exactly — same
        // iterate bits, same per-column iteration/matvec counts — while
        // charging its audit applies to `verify_matvecs`.
        let n = 40;
        let a = random_mat(n, 101, 7.0);
        let bs: Vec<Vec<C64>> = (0..3).map(|i| random_vec(n, 110 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut xs_plain = vec![vec![C64::ZERO; n]; 3];
        let plain = bicgstab_block(&a, &b_refs, &mut xs_plain, cfg);
        let guard = DriftGuard::new(4, 1e-8, 2);
        let mut xs_guarded = vec![vec![C64::ZERO; n]; 3];
        let guarded = bicgstab_block_with(
            &a,
            &b_refs,
            &mut xs_guarded,
            cfg,
            Some(&guard),
            None,
            &Workspace::new(),
        );
        assert_eq!(guard.detected(), 0, "clean run must not trip the guard");
        for c in 0..3 {
            assert_eq!(xs_guarded[c], xs_plain[c], "column {c} iterate");
            assert_eq!(guarded[c].iterations, plain[c].iterations);
            assert_eq!(guarded[c].matvecs, plain[c].matvecs, "column {c}");
            assert_eq!(guarded[c].rel_residual, plain[c].rel_residual);
            assert!(guarded[c].converged);
            assert!(guarded[c].verify_matvecs > 0, "column {c} was audited");
            assert_eq!(guarded[c].rolled_back, 0);
        }
    }

    #[test]
    fn transient_corruption_rolls_back_to_a_bit_identical_solve() {
        // One operator apply returns a wildly wrong panel (a bit-flip stand-in
        // far above audit tolerance); every other apply is clean. The guard
        // must detect the drift, roll back to the last verified snapshot, and
        // replay to the exact iterate of a fully clean solve.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 36;
        let m = random_mat(n, 131, 7.0);
        let b = random_vec(n, 137);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut x_clean = vec![vec![C64::ZERO; n]];
        let clean = bicgstab_block(&m, &[&b], &mut x_clean, cfg);
        assert!(clean[0].converged);

        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            m.matvec(v, out);
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                out[0] += c64(75.0, -40.0);
            }
        });
        let guard = DriftGuard::new(4, 1e-8, 3);
        let ws = Workspace::new();
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&corrupting, &[&b], &mut xs, cfg, Some(&guard), None, &ws);
        assert!(guard.detected() >= 1, "corruption must be detected");
        assert!(guard.rolled_back() >= 1, "steps must be discarded");
        assert_eq!(guard.escalated(), 0, "transient fault must recover");
        assert!(stats[0].converged, "{:?}", stats[0]);
        assert!(stats[0].rolled_back >= 1);
        assert_eq!(
            xs[0], x_clean[0],
            "recovered solve must match the clean solve bit-for-bit"
        );
        assert_eq!(stats[0].iterations, clean[0].iterations);
        assert_eq!(stats[0].matvecs, clean[0].matvecs);

        // The workspace now holds a rolled-back column's vectors and its
        // snapshots: a clean guarded solve in it must not see them.
        let mut x_again = vec![vec![C64::ZERO; n]];
        let again = bicgstab_block_with(&m, &[&b], &mut x_again, cfg, Some(&guard), None, &ws);
        assert_eq!(x_again[0], x_clean[0], "reused workspace leaked state");
        assert_eq!(again[0].iterations, clean[0].iterations);
        assert_eq!(again[0].rolled_back, 0);
    }

    #[test]
    fn persistent_corruption_escalates_typed() {
        // Inconsistent corruption on every apply after the initial residual:
        // the recurrence can never be reconciled with any fixed operator, so
        // each replay re-detects until the rollback budget is spent and the
        // guard escalates instead of reporting convergence.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, 151, 6.0);
        let b = random_vec(n, 157);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 200,
        };
        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            m.matvec(v, out);
            let k = calls.fetch_add(1, Ordering::Relaxed) + 1;
            if k >= 2 {
                // call-dependent garbage: no consistent linear system exists
                out[0] += c64(10.0 + k as f64, -(k as f64));
            }
        });
        let guard = DriftGuard::new(4, 1e-8, 2);
        let ws = Workspace::new();
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&corrupting, &[&b], &mut xs, cfg, Some(&guard), None, &ws);
        assert_eq!(guard.escalated(), 1, "budget exhausted must escalate");
        assert!(
            !stats[0].converged,
            "never report convergence: {:?}",
            stats[0]
        );
        assert!(
            xs[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "escalated column freezes at the last verified iterate"
        );

        // An escalated column's workspace serves the next solve unchanged.
        let mut x_clean = vec![vec![C64::ZERO; n]];
        let clean = bicgstab_block(&m, &[&b], &mut x_clean, cfg);
        let mut x_again = vec![vec![C64::ZERO; n]];
        let again = bicgstab_block_with(&m, &[&b], &mut x_again, cfg, None, None, &ws);
        assert_eq!(again, clean);
        assert_eq!(x_again, x_clean, "reused workspace leaked state");
    }

    #[test]
    fn identity_preconditioner_is_bit_identical_to_none() {
        // `precond = None` reads p and s by reference, `IdentityPrecond`
        // copies them: the trajectories must not differ by a bit.
        use crate::precond::IdentityPrecond;
        let n = 40;
        let a = random_mat(n, 171, 7.0);
        let bs: Vec<Vec<C64>> = (0..3).map(|i| random_vec(n, 180 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let mut xs_plain = vec![vec![C64::ZERO; n]; 3];
        let plain = bicgstab_block(&a, &b_refs, &mut xs_plain, cfg);
        let mut xs_id = vec![vec![C64::ZERO; n]; 3];
        let id = bicgstab_block_with(
            &a,
            &b_refs,
            &mut xs_id,
            cfg,
            None,
            Some(&IdentityPrecond),
            &Workspace::new(),
        );
        assert_eq!(id, plain);
        assert_eq!(xs_id, xs_plain);
        assert!(plain.iter().all(|s| s.converged && s.iterations > 0));
    }

    #[test]
    fn preconditioned_breakdown_freezes_at_the_last_finite_iterate() {
        // The preconditioned twin of
        // `breakdown_iteration_count_reproduces_the_returned_iterate`: the
        // separate preconditioned loop this kernel replaced had no
        // non-finite guard, ran to `max_iters` and returned a NaN iterate.
        use crate::precond::JacobiPrecond;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 24;
        let m = random_mat(n, 77, 6.0);
        let b = random_vec(n, 79);
        let jacobi = JacobiPrecond((0..n).map(|i| m.at(i, i)).collect());
        let calls = AtomicUsize::new(0);
        let poisoned = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            // Applies 1..=5 healthy; apply 6 (the `A M p` of iteration 3)
            // poisons the step with NaN, forcing the phase-3 rollback.
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 6 {
                out.iter_mut().for_each(|o| *o = c64(f64::NAN, f64::NAN));
            } else {
                m.matvec(v, out);
            }
        });
        let cfg = IterConfig {
            tol: 1e-14,
            max_iters: 50,
        };
        let ws = Workspace::new();
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&poisoned, &[&b], &mut xs, cfg, None, Some(&jacobi), &ws);
        assert!(!stats[0].converged);
        assert_eq!(stats[0].iterations, 2, "rolled-back step must not count");
        assert!(stats[0].rel_residual.is_finite());
        assert!(
            xs[0].iter().all(|v| finite_c(*v)),
            "iterate must stay finite"
        );

        let replay_cfg = IterConfig {
            tol: 1e-14,
            max_iters: stats[0].iterations,
        };
        // The replay runs in the workspace the broken-down column left full
        // of NaN: nothing of it may reach the clean solve.
        let mut xs_replay = vec![vec![C64::ZERO; n]];
        let replay = bicgstab_block_with(
            &m,
            &[&b],
            &mut xs_replay,
            replay_cfg,
            None,
            Some(&jacobi),
            &ws,
        );
        assert_eq!(replay[0].iterations, stats[0].iterations);
        assert_eq!(xs_replay[0], xs[0], "replay at the reported count differs");
    }
}

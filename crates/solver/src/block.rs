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
//! single right-hand side is a panel of width 1, and the drift guard is an
//! optional argument. Every solve runs it under one breakdown policy,
//! [`try_bicgstab_block`]; [`crate::BicgstabBackend`] binds that to one
//! `(G0, object)` pair.
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
use crate::verify::DriftGuard;
use crate::workspace::{Leased, Workspace};
use ffw_fault::FaultError;
use ffw_numerics::vecops::{axpy, norm2_sqr, zdotc};
use ffw_numerics::{c64, C64};

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

/// The unit-modulus weight column `c` carries in the combined audit at its
/// step `iter`: a phase from splitmix64, so it is the same on every rank and
/// in every replay, and independent of the data it weighs.
fn audit_weight(c: usize, iter: usize) -> C64 {
    let bits = ffw_fault::splitmix64((c as u64) << 32 ^ iter as u64);
    let (sin, cos) = (std::f64::consts::TAU * (bits >> 11) as f64 / (1u64 << 53) as f64).sin_cos();
    c64(cos, sin)
}

/// `‖Σ g_c (b_c − r_rec_c − A x_c) / ‖b_c‖‖` over the columns `due`: the
/// drifts of the whole set, each on its own relative scale and turned by
/// its weight `g_c` ([`audit_weight`]), summed — with one operator apply
/// (of `X = Σ g_c x_c / ‖b_c‖`) and one reduction.
#[expect(
    clippy::too_many_arguments,
    reason = "the panel's per-column state, passed as the sweep holds it"
)]
fn combined_drift<A: DistOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &[Vec<C64>],
    r_rec: &[Vec<C64>],
    b_norm: &[f64],
    iters: &[usize],
    due: &[usize],
    ws: &Workspace,
) -> Result<f64, A::Error> {
    let mut mix = ws.lease(a.n_local(), 2);
    let (mixed, applied) = mix.split_at_mut(1);
    mixed[0].fill(C64::ZERO);
    for &c in due {
        axpy(audit_weight(c, iters[c]) / b_norm[c], &xs[c], &mut mixed[0]);
    }
    a.try_apply_block_local(&[&mixed[0]], applied)?;
    // `mixed` now takes `T = Σ g_c (b_c − r_rec_c) / ‖b_c‖`.
    mixed[0].fill(C64::ZERO);
    for &c in due {
        let w = audit_weight(c, iters[c]) / b_norm[c];
        for (t, (bi, ri)) in mixed[0].iter_mut().zip(bs[c].iter().zip(&r_rec[c])) {
            *t = w.mul_add(*bi - *ri, *t);
        }
    }
    let diff2: f64 = mixed[0]
        .iter()
        .zip(&applied[0])
        .map(|(t, y)| (*t - *y).norm_sqr())
        .sum();
    let mut sum = [c64(diff2, 0.0)];
    a.reduce(&mut sum)?;
    Ok(sum[0].re.sqrt())
}

/// Audits the columns `due` at one point of a lockstep step — iterates
/// `xs`, recursive residuals `r_rec` — and returns those whose drift
/// exceeds [`DriftGuard::rel_tol`], the ones to roll back.
///
/// A single column gets the exact audit, [`residual_drift`]. Several get
/// Freivalds' randomised check of the Huang–Abraham identity first:
/// [`combined_drift`] with one apply, passing at `rel_tol / 2`. One column
/// past `rel_tol` next to siblings drifting by less than `rel_tol / 2` in
/// all (clean ones read ~1e-13) fails it by the triangle inequality, and
/// the random phases keep drifts of several columns from cancelling. Only
/// when it fails does every column get its exact audit, and those alone
/// decide: the combined check can spare audits, never roll a column back.
/// The applies are charged to `verify_mv` — the combined one to the first
/// column — so a panel's `verify_matvecs` add up to what the audits spent.
#[expect(
    clippy::too_many_arguments,
    reason = "the panel's per-column state, passed as the sweep holds it"
)]
fn audit<A: DistOp + ?Sized>(
    a: &A,
    g: &DriftGuard,
    bs: &[&[C64]],
    xs: &[Vec<C64>],
    r_rec: &[Vec<C64>],
    b_norm: &[f64],
    iters: &[usize],
    due: &[usize],
    verify_mv: &mut [usize],
    ws: &Workspace,
) -> Result<Vec<usize>, A::Error> {
    let within = |drift: f64, tol: f64| drift.is_finite() && drift <= tol;
    let mut applies = 0;
    if due.len() > 1 {
        applies += 1;
        verify_mv[due[0]] += 1;
        let drift = combined_drift(a, bs, xs, r_rec, b_norm, iters, due, ws)?;
        if within(drift, g.rel_tol / 2.0) {
            g.record_audits(due.len(), applies);
            return Ok(Vec::new());
        }
    }
    let mut failed = Vec::new();
    for &c in due {
        applies += 1;
        verify_mv[c] += 1;
        let drift = residual_drift(a, bs[c], &xs[c], &r_rec[c], b_norm[c], ws)?;
        if !within(drift, g.rel_tol) {
            failed.push(c);
        }
    }
    g.record_audits(due.len(), applies);
    Ok(failed)
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
            &format!("sweep column {c}: {kind} at iter {}", self.iters[c]),
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
                "sweep column {c}: residual drift persisted through \
                 {} rollback(s); surfacing unconverged",
                self.rollbacks[c]
            ),
        );
        self.finish(c, self.res[c], false);
        false
    }
}

/// Solves `A xs[c] = bs[c]` for all `B` columns with lockstep BiCGStab and
/// per-column convergence masking, in the caller's workspace. Each `xs[c]`
/// carries its initial guess (zero, or a warm start) and is overwritten with
/// that column's solution.
///
/// The kernel runs under the one breakdown policy every solve has, on any
/// [`DistOp`]: a column that breaks down (rho underflow, NaN/Inf) freezes at
/// its last finite iterate, siblings unaffected, and is retried once from
/// there after the lockstep sweep — a fresh width-1 sweep on the remaining
/// iteration budget, which re-derives `r` and `r_hat` from the current `x`
/// and so leaves the degenerate Krylov directions behind while keeping the
/// progress made; a column whose retry breaks down too surfaces
/// [`FaultError::KrylovBreakdown`] (rank 0; a rank grid stamps its own). The
/// broken set derives from reduced scalars, so the retries stay collective
/// across the ranks sharing the vectors. An operator failure aborts the
/// whole panel with the originating error.
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
/// silently converged. The columns due at one point of a lockstep step are
/// audited together, with one apply while none has drifted (`audit`). On a
/// clean run the audits touch no recurrence state, so every column's
/// trajectory — iterates, residuals, `iterations`, `matvecs` — is
/// bit-identical to the unguarded solve; the audit applies are reported in
/// `verify_matvecs` and counted by the guard.
pub fn try_bicgstab_block<A: DistOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    ws: &Workspace,
) -> Result<Vec<SolveStats>, FaultError>
where
    FaultError: From<A::Error>,
{
    let (mut stats, mut broken) = sweep(a, bs, xs, cfg, guard, ws)?;
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
        let (again, broken_again) = sweep(a, &bs[c..=c], &mut xs[c..=c], rest, guard, ws)?;
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
#[expect(
    clippy::type_complexity,
    reason = "per-column stats and the broken columns, destructured at the driver's two call sites"
)]
fn sweep<A: DistOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
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

        // v = A p, fused; then alpha, s = r - alpha v with ‖s‖² in the same
        // pass, and the early s-norm exit.
        apply_cols(a, &active, &st.p, &mut st.v)?;
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
        // Would-be convergences a guard audits, all at once below.
        let mut due = Vec::new();
        for (k, &c) in active.iter().enumerate() {
            s_norm[c] = s_sq[k].re.sqrt();
            let rel = s_norm[c] / b_norm[c];
            if rel >= cfg.tol || rel.is_nan() {
                after_s.push(c);
                continue;
            }
            axpy(st.alpha[c], &st.p[c], &mut st.xs[c]);
            if guard.is_some() {
                due.push(c);
            } else {
                ffw_obs::series_push("solver.bicgstab.residual", rel);
                st.finish(c, rel, true);
            }
        }
        if let Some(g) = guard.filter(|_| !due.is_empty()) {
            // The recursive residual here is `s` and the candidate iterate
            // is x + alpha p.
            let failed = audit(
                a,
                g,
                bs,
                st.xs,
                &s,
                &b_norm,
                &st.iters,
                &due,
                &mut st.verify_mv,
                ws,
            )?;
            for c in due {
                if failed.contains(&c) {
                    if st.recover(g, c) {
                        resumed.push(c);
                    }
                    continue;
                }
                let rel = s_norm[c] / b_norm[c];
                ffw_obs::series_push("solver.bicgstab.residual", rel);
                st.finish(c, rel, true);
            }
        }
        active = after_s;

        // t = A s, fused; then omega (both dots of every column from one
        // pass, in one reduction), the residual update and check, and the x
        // update.
        apply_cols(a, &active, &s, &mut t)?;
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
            let (dp, ds) = (&st.p[c], &s[c]);
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
        let mut due = Vec::new();
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
                let (dp, ds) = (&st.p[c], &s[c]);
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
            // at a top-of-loop state.
            if guard.is_some_and(|g| converged || st.iters[c].is_multiple_of(g.period)) {
                due.push(c);
            } else if converged {
                st.finish(c, res_new, true);
            } else {
                after_update.push(c);
            }
        }
        if let Some(g) = guard.filter(|_| !due.is_empty()) {
            // A pass at a periodic audit refreshes the rollback snapshot; a
            // failure rolls back (or, with the budget exhausted, escalates
            // and freezes).
            let failed = audit(
                a,
                g,
                bs,
                st.xs,
                &st.r,
                &b_norm,
                &st.iters,
                &due,
                &mut st.verify_mv,
                ws,
            )?;
            for c in due {
                if failed.contains(&c) {
                    if st.recover(g, c) {
                        resumed.push(c);
                    }
                } else if st.res[c] < cfg.tol {
                    st.finish(c, st.res[c], true);
                } else {
                    st.snapshot(c);
                    after_update.push(c);
                }
            }
        }
        active = after_update;
        if guard.is_some() {
            // Audited and rolled-back columns rejoin in column order.
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
    use crate::op::DiagonalOp;
    use ffw_numerics::c64;
    use ffw_numerics::linalg::Matrix;
    use std::convert::Infallible;

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

    /// [`try_bicgstab_block`] on a panel that must not break down.
    fn solve<A: DistOp<Error = Infallible> + ?Sized>(
        a: &A,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
        guard: Option<&DriftGuard>,
        ws: &Workspace,
    ) -> Vec<SolveStats> {
        try_bicgstab_block(a, bs, xs, cfg, guard, ws).expect("no breakdown")
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
        let panel = |width: usize| {
            let b_refs: Vec<&[C64]> = bs[..width].iter().map(|b| b.as_slice()).collect();
            let mut xs = vec![vec![C64::ZERO; n]; width];
            let stats = solve(&a, &b_refs, &mut xs, cfg, None, &ws);
            (xs, stats)
        };
        let (x9, s9) = panel(9);
        for width in [1usize, 3, 8, 9, 1, 8, 3] {
            let (xs, stats) = panel(width);
            assert_eq!(stats.len(), width);
            for c in 0..width {
                assert_eq!(stats[c], s9[c], "column {c} stats at width {width}");
                assert_eq!(xs[c], x9[c], "column {c} iterate at width {width}");
            }
        }
        let mut fresh = vec![vec![C64::ZERO; n]];
        let alone = solve(&a, &[&bs[0]], &mut fresh, cfg, None, &Workspace::new());
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
        let Ok((stats, _)) = sweep(&poisoned, &[&b], &mut xs, cfg, None, &Workspace::new());
        assert!(!stats[0].converged);
        assert_eq!(stats[0].iterations, 2, "rolled-back step must not count");

        let mut xs_replay = vec![vec![C64::ZERO; n]];
        let cfg = IterConfig {
            max_iters: stats[0].iterations,
            ..cfg
        };
        let replay = solve(&m, &[&b], &mut xs_replay, cfg, None, &Workspace::new());
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
        let ws = Workspace::new();
        let block = solve(&a, &b_refs, &mut xs, cfg, None, &ws);
        for (c, b) in b_refs.iter().enumerate() {
            let mut x_scalar = vec![vec![C64::ZERO; n]];
            let scalar = solve(&a, &[b], &mut x_scalar, cfg, None, &ws);
            assert_eq!(block[c], scalar[0], "column {c} stats");
            assert_eq!(xs[c], x_scalar[0], "column {c} iterate");
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
        let ws = Workspace::new();
        let Ok((stats, _)) = sweep(&a, &[&b_easy, &b_hard], &mut xs, cfg, None, &ws);
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
        let ws = Workspace::new();
        let Ok((stats, _)) = sweep(&a, &[&b_bad, &b_good], &mut xs, cfg, None, &ws);
        assert!(!stats[0].converged, "{:?}", stats[0]);
        assert!(
            xs[0].iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "broken column's iterate must be rolled back to a finite value"
        );
        let mut x_scalar = vec![vec![C64::ZERO; n]];
        let scalar = solve(&a, &[&b_good], &mut x_scalar, cfg, None, &ws);
        assert_eq!(stats[1..], scalar, "sibling stats unaffected by breakdown");
        assert_eq!(xs[1..], x_scalar, "sibling iterate unaffected by breakdown");
    }

    #[test]
    fn breakdown_on_singular_operator_is_honest_not_silent() {
        // Regression test for the silent-divergence bug: with a singular
        // operator, alpha = rho / <r_hat, A p> divides by zero and poisons
        // the iterate with NaN. NaN fails every `<` comparison, so the old
        // loop ran on and "reported the iterate" even though the residual
        // was NaN. The zero operator is maximally singular: the kernel must
        // freeze the column with honest unconverged stats, a finite residual
        // and iterate, and the policy must retry it once and then fail typed,
        // its iterate still finite.
        let n = 8;
        let zero_op = crate::op::FnOp::new(n, n, |_v: &[C64], out: &mut [C64]| {
            out.iter_mut().for_each(|o| *o = C64::ZERO);
        });
        let b = vec![c64(1.0, 0.5); n];
        let cfg = IterConfig::default();
        let mut xs = vec![vec![C64::ZERO; n]];
        let Ok((stats, _)) = sweep(&zero_op, &[&b], &mut xs, cfg, None, &Workspace::new());
        assert!(!stats[0].converged);
        assert!(stats[0].rel_residual.is_finite());
        assert!(xs[0].iter().all(|v| finite_c(*v)));
        let mut xs = vec![vec![C64::ZERO; n]];
        match try_bicgstab_block(&zero_op, &[&b], &mut xs, cfg, None, &Workspace::new()) {
            Err(FaultError::KrylovBreakdown { detail, .. }) => {
                assert!(detail.contains("1 restart(s) attempted"), "{detail}")
            }
            other => panic!("expected KrylovBreakdown, got {other:?}"),
        }
        assert!(xs[0].iter().all(|v| finite_c(*v)));
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
            let out = try_bicgstab_block(&op, &b_refs, &mut xs, cfg, None, &Workspace::new());
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
        let (cfg, ws) = (IterConfig::default(), Workspace::new());
        let stats = solve(&a, &[&b_zero, &b_live], &mut xs, cfg, None, &ws);
        assert!(stats[0].converged);
        assert_eq!(stats[0].iterations, 0);
        assert_eq!(stats[0].matvecs, 0);
        assert!(xs[0].iter().all(|v| v.abs() == 0.0));
        assert!(stats[1].converged);
    }

    #[test]
    fn empty_block_is_a_noop() {
        let a = random_mat(4, 1, 5.0);
        let (cfg, ws) = (IterConfig::default(), Workspace::new());
        let stats = solve(&a, &[], &mut [], cfg, None, &ws);
        assert!(stats.is_empty());
    }

    #[test]
    fn guarded_clean_run_is_bit_identical_and_audited() {
        // Audits read state but never write it, so a corruption-free guarded
        // solve must reproduce the unguarded trajectory exactly — same
        // iterate bits, same per-column iteration/matvec counts — at every
        // panel width, while its `verify_matvecs` add up to the applies the
        // audits spent, fewer than the columns they audited.
        let n = 40;
        let a = random_mat(n, 101, 7.0);
        let bs: Vec<Vec<C64>> = (0..8).map(|i| random_vec(n, 110 + i)).collect();
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        for width in 1..=8 {
            let b_refs: Vec<&[C64]> = bs[..width].iter().map(|b| b.as_slice()).collect();
            let mut xs_plain = vec![vec![C64::ZERO; n]; width];
            let plain = solve(&a, &b_refs, &mut xs_plain, cfg, None, &Workspace::new());
            let guard = DriftGuard::new(4, 1e-8, 2);
            let mut xs_guarded = vec![vec![C64::ZERO; n]; width];
            let guarded = solve(
                &a,
                &b_refs,
                &mut xs_guarded,
                cfg,
                Some(&guard),
                &Workspace::new(),
            );
            assert_eq!(guard.detected(), 0, "clean run must not trip the guard");
            for c in 0..width {
                assert_eq!(xs_guarded[c], xs_plain[c], "column {c} iterate");
                assert_eq!(guarded[c].iterations, plain[c].iterations);
                assert_eq!(guarded[c].matvecs, plain[c].matvecs, "column {c}");
                assert_eq!(guarded[c].rel_residual, plain[c].rel_residual);
                assert!(guarded[c].converged);
                assert_eq!(guarded[c].rolled_back, 0);
            }
            // Every column passes its periodic audits before the step it
            // converges at, and its convergence.
            let audits: usize = plain.iter().map(|s| (s.iterations - 1) / 4 + 1).sum();
            assert_eq!(guard.audits(), audits as u64, "width {width}");
            let spent: usize = guarded.iter().map(|s| s.verify_matvecs).sum();
            assert_eq!(spent as u64, guard.audit_applies(), "width {width}");
            if width > 1 {
                assert!(guard.audit_applies() < guard.audits(), "width {width}");
            } else {
                assert_eq!(guard.audit_applies(), guard.audits());
            }
        }
    }

    /// `width` random right-hand sides, random iterates, their exact
    /// residuals `b − A x`, and `‖b‖`.
    #[expect(
        clippy::type_complexity,
        reason = "a test fixture's four panels, destructured at every call"
    )]
    fn audited_panel(
        a: &Matrix,
        width: usize,
    ) -> (Vec<Vec<C64>>, Vec<Vec<C64>>, Vec<Vec<C64>>, Vec<f64>) {
        let n = a.rows();
        let bs: Vec<Vec<C64>> = (0..width).map(|c| random_vec(n, 300 + c as u64)).collect();
        let xs: Vec<Vec<C64>> = (0..width).map(|c| random_vec(n, 400 + c as u64)).collect();
        let rs = bs
            .iter()
            .zip(&xs)
            .map(|(b, x)| {
                let mut ax = vec![C64::ZERO; n];
                a.matvec(x, &mut ax);
                b.iter().zip(&ax).map(|(bi, yi)| *bi - *yi).collect()
            })
            .collect();
        let b_norm = bs.iter().map(|b| norm2_sqr(b).sqrt()).collect();
        (bs, xs, rs, b_norm)
    }

    #[test]
    fn combined_audit_traces_one_flipped_bit_to_its_column() {
        // One bit of one iterate flipped, at every column of panels 2..=8
        // wide: the combined check fails, the exact audits name that column
        // alone, and it costs one apply more than the panel is wide.
        let n = 40;
        let a = random_mat(n, 201, 7.0);
        let ws = Workspace::new();
        for width in 2..=8 {
            let (bs, xs, rs, b_norm) = audited_panel(&a, width);
            let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
            let due: Vec<usize> = (0..width).collect();
            let iters = vec![1; width];
            let guard = DriftGuard::new(4, 1e-8, 2);
            let mut mv = vec![0; width];
            let Ok(clean) = audit(
                &a, &guard, &b_refs, &xs, &rs, &b_norm, &iters, &due, &mut mv, &ws,
            );
            assert!(clean.is_empty(), "width {width}: a clean panel passes");
            assert_eq!((guard.audits(), guard.audit_applies()), (width as u64, 1));
            for bad in 0..width {
                for bit in [36, 44, 52, 56, 62] {
                    let mut xs = xs.clone();
                    let i = (7 * bad + bit as usize) % n;
                    xs[bad][i].re = f64::from_bits(xs[bad][i].re.to_bits() ^ 1 << bit);
                    let g = DriftGuard::new(4, 1e-8, 2);
                    let mut mv = vec![0; width];
                    let Ok(failed) = audit(
                        &a, &g, &b_refs, &xs, &rs, &b_norm, &iters, &due, &mut mv, &ws,
                    );
                    assert_eq!(failed, [bad], "width {width}, bit {bit}");
                    assert_eq!(g.audit_applies(), width as u64 + 1);
                    assert_eq!(mv.iter().sum::<usize>(), width + 1);
                }
            }
        }
    }

    #[test]
    fn combined_audit_fails_just_above_the_tolerance_and_rolls_back_by_the_exact_one() {
        // A column drifting 1% past `rel_tol` next to clean siblings fails
        // the combined check, and its exact audit rolls it back; one 1%
        // inside `rel_tol` fails the combined check too (it passes at
        // `rel_tol / 2`), but its exact audit keeps it — no false positive.
        let n = 40;
        let a = random_mat(n, 211, 7.0);
        let ws = Workspace::new();
        let tol = 1e-8;
        for width in 2..=8 {
            let (bs, xs, rs, b_norm) = audited_panel(&a, width);
            let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
            let due: Vec<usize> = (0..width).collect();
            let iters: Vec<usize> = (0..width).map(|c| 3 + c).collect();
            for bad in 0..width {
                for (scale, rolled) in [(1.01, true), (0.99, false)] {
                    let mut rs = rs.clone();
                    let e = random_vec(n, 500 + bad as u64);
                    let s = scale * tol * b_norm[bad] / norm2_sqr(&e).sqrt();
                    axpy(c64(s, 0.0), &e, &mut rs[bad]);
                    let Ok(combined) =
                        combined_drift(&a, &b_refs, &xs, &rs, &b_norm, &iters, &due, &ws);
                    assert!(combined > tol / 2.0, "width {width}: {combined:e}");
                    let g = DriftGuard::new(4, tol, 2);
                    let mut mv = vec![0; width];
                    let Ok(failed) = audit(
                        &a, &g, &b_refs, &xs, &rs, &b_norm, &iters, &due, &mut mv, &ws,
                    );
                    let want: &[usize] = if rolled { &[bad] } else { &[] };
                    assert_eq!(failed, want, "width {width}, column {bad} at {scale}");
                }
            }
        }
    }

    #[test]
    fn combined_audit_sees_drifts_a_plain_sum_cancels() {
        // Two iterates moved by the same vector in opposite directions, each
        // on its own column's scale: the unweighted combination is exactly
        // clean, the phases are not, and both columns roll back.
        let n = 40;
        let a = random_mat(n, 231, 7.0);
        let ws = Workspace::new();
        let (bs, mut xs, rs, b_norm) = audited_panel(&a, 4);
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let e = random_vec(n, 700);
        axpy(c64(1e-6 * b_norm[0], 0.0), &e, &mut xs[0]);
        axpy(c64(-1e-6 * b_norm[2], 0.0), &e, &mut xs[2]);
        let due = [0, 1, 2, 3];
        let g = DriftGuard::new(4, 1e-8, 2);
        let Ok(failed) = audit(
            &a,
            &g,
            &b_refs,
            &xs,
            &rs,
            &b_norm,
            &[5; 4],
            &due,
            &mut [0; 4],
            &ws,
        );
        assert_eq!(failed, [0, 2]);
    }

    #[test]
    fn combined_audit_rolls_back_one_column_and_replays_it_bit_identically() {
        // One bit flipped in one column's `A p` on the second step. The
        // periodic audit at step 4 finds it in a combined check over the
        // whole panel; that column alone rolls back and replays, and every
        // column — the corrupted one too — ends bit-identical to the clean
        // solve, its siblings with their clean stats.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Flip<'m> {
            m: &'m Matrix,
            calls: AtomicUsize,
            bad: usize,
            bit: u32,
        }
        impl crate::op::LinOp for Flip<'_> {
            fn dim_out(&self) -> usize {
                self.m.rows()
            }
            fn dim_in(&self) -> usize {
                self.m.cols()
            }
            fn apply(&self, x: &[C64], y: &mut [C64]) {
                self.m.matvec(x, y);
            }
        }
        impl crate::op::BlockLinOp for Flip<'_> {
            fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
                for (x, y) in xs.iter().zip(ys.iter_mut()) {
                    self.m.matvec(x, y);
                }
                // Block apply 4 is the panel's `A p` of step 2; the flip
                // lands on the column's largest real part (at least 2, so
                // no exponent flip can overflow it).
                if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                    let y = &mut ys[self.bad];
                    let i = (0..y.len())
                        .max_by(|&i, &j| y[i].re.abs().total_cmp(&y[j].re.abs()))
                        .unwrap();
                    assert!(y[i].re.abs() >= 2.0);
                    y[i].re = f64::from_bits(y[i].re.to_bits() ^ 1 << self.bit);
                }
            }
        }
        let n = 40;
        let m = random_mat(n, 221, 7.0);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        for width in 2..=8 {
            let bs: Vec<Vec<C64>> = (0..width)
                .map(|c| {
                    random_vec(n, 600 + c as u64)
                        .iter()
                        .map(|v| *v * 10.0)
                        .collect()
                })
                .collect();
            let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
            let mut x_clean = vec![vec![C64::ZERO; n]; width];
            let clean = solve(&m, &b_refs, &mut x_clean, cfg, None, &Workspace::new());
            assert!(clean.iter().all(|s| s.converged && s.iterations > 4));
            for bad in 0..width {
                for bit in [36, 44, 52, 56, 62] {
                    let op = Flip {
                        m: &m,
                        calls: AtomicUsize::new(0),
                        bad,
                        bit,
                    };
                    let guard = DriftGuard::new(4, 1e-8, 2);
                    let mut xs = vec![vec![C64::ZERO; n]; width];
                    let stats = solve(&op, &b_refs, &mut xs, cfg, Some(&guard), &Workspace::new());
                    let at = format!("width {width}, column {bad}, bit {bit}");
                    assert_eq!((guard.detected(), guard.escalated()), (1, 0), "{at}");
                    assert_eq!(xs, x_clean, "{at}");
                    for c in 0..width {
                        assert_eq!(stats[c].iterations, clean[c].iterations, "{at}");
                        assert_eq!(stats[c].matvecs, clean[c].matvecs, "{at}");
                        assert_eq!(stats[c].rel_residual, clean[c].rel_residual, "{at}");
                        assert_eq!(stats[c].rolled_back > 0, c == bad, "{at}: column {c}");
                    }
                }
            }
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
        let clean = solve(&m, &[&b], &mut x_clean, cfg, None, &Workspace::new());
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
        let stats = solve(&corrupting, &[&b], &mut xs, cfg, Some(&guard), &ws);
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
        let again = solve(&m, &[&b], &mut x_again, cfg, Some(&guard), &ws);
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
        let stats = solve(&corrupting, &[&b], &mut xs, cfg, Some(&guard), &ws);
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
        let clean = solve(&m, &[&b], &mut x_clean, cfg, None, &Workspace::new());
        let mut x_again = vec![vec![C64::ZERO; n]];
        let again = solve(&m, &[&b], &mut x_again, cfg, None, &ws);
        assert_eq!(again, clean);
        assert_eq!(x_again, x_clean, "reused workspace leaked state");
    }
}

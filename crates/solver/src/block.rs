//! Batched BiCGStab: `B` independent systems sharing one operator, iterated
//! in lockstep so every operator application is a fused block apply.
//!
//! The paper's first parallel dimension is independent illuminations; this
//! solver is how the serial code exploits it. All `B` transmitter systems
//! share `A = I - G0 diag(O)`, so each Krylov step needs the *same* operator
//! applied to `B` different vectors — exactly what
//! [`BlockLinOp::apply_block`] fuses into one tree traversal.
//!
//! This is the only serial BiCGStab recurrence in the workspace: a single
//! right-hand side is a panel of width 1 ([`crate::bicgstab`]), and the
//! drift guard and the right preconditioner are optional arguments of the
//! one kernel, [`bicgstab_block_with`].
//!
//! Numerics contract: columns never mix — per-column scalars, per-column
//! inner products, same branch structure — so a column's trajectory
//! (iterates, residuals, iteration count) is bit-identical to solving it
//! alone at any panel width, provided the operator's `apply_block` is
//! column-wise independent (true for the default loop implementation and for
//! the MLFMA engine's fused panel path). Convergence masking: a column that
//! converges (or breaks down) *freezes* — its iterate is never touched again
//! and it is excluded from subsequent block applies — while the remaining
//! columns keep iterating until all are done.

use crate::krylov::{finite_c, BreakdownKind, IterConfig, SolveStats};
use crate::op::BlockLinOp;
use crate::precond::Precond;
use crate::verify::DriftGuard;
use ffw_numerics::vecops::{axpy, norm2, zdotc};
use ffw_numerics::C64;

/// Applies `a` to the selected columns of `input`, writing the matching
/// columns of `output`, via one fused block apply.
pub(crate) fn apply_cols<A: BlockLinOp + ?Sized>(
    a: &A,
    cols: &[usize],
    input: &[Vec<C64>],
    output: &mut [Vec<C64>],
) {
    if cols.is_empty() {
        return;
    }
    let xs: Vec<&[C64]> = cols.iter().map(|&c| input[c].as_slice()).collect();
    let mut ys: Vec<Vec<C64>> = cols
        .iter()
        .map(|&c| std::mem::take(&mut output[c]))
        .collect();
    a.apply_block(&xs, &mut ys);
    for (&c, y) in cols.iter().zip(ys) {
        output[c] = y;
    }
}

/// A per-column recurrence snapshot taken at a passed drift audit. Every
/// snapshot is a *top-of-loop* state (the next action is the rho inner
/// product), so a rolled-back column resumes the lockstep loop directly.
struct ColSnap {
    x: Vec<C64>,
    r: Vec<C64>,
    p: Vec<C64>,
    v: Vec<C64>,
    rho: C64,
    alpha: C64,
    omega: C64,
    res: f64,
    iters: usize,
    matvecs: usize,
}

/// `‖r_rec - (b - A x)‖ / ‖b‖`: how far the recursive residual has drifted
/// from the truth. One extra operator apply (charged to `verify_matvecs`).
pub(crate) fn residual_drift<A: BlockLinOp + ?Sized>(
    a: &A,
    b: &[C64],
    x: &[C64],
    r_rec: &[C64],
    b_norm: f64,
) -> f64 {
    let n = b.len();
    let mut r_true = vec![C64::ZERO; n];
    a.apply(x, &mut r_true);
    let mut diff2 = 0.0f64;
    for i in 0..n {
        let d = r_rec[i] - (b[i] - r_true[i]);
        diff2 += d.norm_sqr();
    }
    diff2.sqrt() / b_norm
}

/// Restores column `c` to its last verified snapshot after a failed audit.
/// Applies spent on the discarded segment move from `matvecs` to
/// `verify_matvecs`; the discarded steps are counted in `rolled`. Returns
/// `true` if the column may replay (rollback budget left), `false` if the
/// guard escalated (caller freezes the column unconverged at the restored —
/// last verified — iterate).
#[allow(clippy::too_many_arguments)]
fn guard_recover(
    g: &DriftGuard,
    c: usize,
    snap: &ColSnap,
    x: &mut [C64],
    r: &mut [C64],
    p: &mut [C64],
    v: &mut [C64],
    rho: &mut C64,
    alpha: &mut C64,
    omega: &mut C64,
    res: &mut f64,
    iters: &mut usize,
    matvecs: &mut usize,
    verify_mv: &mut usize,
    rolled: &mut usize,
    rollbacks: &mut u32,
) -> bool {
    g.record_detected();
    let steps = *iters - snap.iters;
    *verify_mv += *matvecs - snap.matvecs;
    *rolled += steps;
    x.copy_from_slice(&snap.x);
    r.copy_from_slice(&snap.r);
    p.copy_from_slice(&snap.p);
    v.copy_from_slice(&snap.v);
    *rho = snap.rho;
    *alpha = snap.alpha;
    *omega = snap.omega;
    *res = snap.res;
    *iters = snap.iters;
    *matvecs = snap.matvecs;
    if *rollbacks < g.max_rollbacks {
        *rollbacks += 1;
        g.record_rollback(steps as u64);
        true
    } else {
        g.record_escalated();
        ffw_obs::event(
            "solver.breakdown",
            &format!(
                "bicgstab_block column {c}: residual drift persisted through \
                 {rollbacks} rollback(s); surfacing unconverged"
            ),
        );
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
pub fn bicgstab_block<A: BlockLinOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Vec<SolveStats> {
    bicgstab_block_with(a, bs, xs, cfg, None, None)
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

/// The BiCGStab kernel behind every serial solve: [`bicgstab_block`] plus
/// two optional riders.
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
/// the arithmetic is that of the unpreconditioned recurrence.
pub fn bicgstab_block_with<A: BlockLinOp + ?Sized>(
    a: &A,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    precond: Option<&dyn Precond>,
) -> Vec<SolveStats> {
    let nb = bs.len();
    assert_eq!(xs.len(), nb, "solution block width mismatch");
    if nb == 0 {
        return Vec::new();
    }
    let n = a.dim_in();
    assert_eq!(a.dim_out(), n);
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
    }
    let _span = ffw_obs::span("solver.bicgstab");
    if ffw_obs::enabled() {
        ffw_obs::histogram("solver.bicgstab.panel_width").record(nb as u64);
    }

    let mut stats: Vec<Option<SolveStats>> = vec![None; nb];
    let mut b_norm = vec![0.0f64; nb];
    let mut iters = vec![0usize; nb];
    let mut matvecs = vec![0usize; nb];
    let mut res = vec![0.0f64; nb];
    let mut rho = vec![C64::ONE; nb];
    let mut alpha = vec![C64::ONE; nb];
    let mut omega = vec![C64::ONE; nb];
    let mut rho_new = vec![C64::ZERO; nb];
    let mut r: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut r_hat: Vec<Vec<C64>> = vec![Vec::new(); nb];
    let mut v: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut p: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut s: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut t: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    // M p and M s: only a preconditioned solve owns (and fills) them.
    let hat_cols = if precond.is_some() { nb } else { 0 };
    let mut p_hat: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; hat_cols];
    let mut s_hat: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; hat_cols];
    let mut x_prev = vec![C64::ZERO; n];

    // Drift-guard bookkeeping (all zeros / unused when `guard` is None).
    let mut verify_mv = vec![0usize; nb];
    let mut rolled = vec![0usize; nb];
    let mut rollbacks = vec![0u32; nb];
    let mut snaps: Vec<Option<ColSnap>> = (0..nb).map(|_| None).collect();

    let freeze_breakdown = |c: usize,
                            kind: BreakdownKind,
                            iters: usize,
                            matvecs: usize,
                            verify_matvecs: usize,
                            rolled_back: usize,
                            last_res: f64|
     -> SolveStats {
        ffw_obs::event(
            "solver.breakdown",
            &format!("bicgstab_block column {c}: {kind} at iter {iters}"),
        );
        SolveStats {
            verify_matvecs,
            rolled_back,
            iterations: iters,
            matvecs,
            rel_residual: last_res,
            converged: false,
        }
    };

    // Zero right-hand sides are solved exactly by x = 0.
    let mut live: Vec<usize> = Vec::with_capacity(nb);
    for c in 0..nb {
        b_norm[c] = norm2(bs[c]);
        if b_norm[c] == 0.0 {
            xs[c].iter_mut().for_each(|v| *v = C64::ZERO);
            stats[c] = Some(SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: 0,
                matvecs: 0,
                rel_residual: 0.0,
                converged: true,
            });
        } else {
            live.push(c);
        }
    }

    // Fresh residuals r = b - A x, one fused apply over all live columns.
    apply_cols(a, &live, xs, &mut r);
    let mut active: Vec<usize> = Vec::with_capacity(live.len());
    for &c in &live {
        matvecs[c] += 1;
        for i in 0..n {
            r[c][i] = bs[c][i] - r[c][i];
        }
        r_hat[c] = r[c].clone();
        res[c] = norm2(&r[c]) / b_norm[c];
        if !res[c].is_finite() {
            stats[c] = Some(freeze_breakdown(
                c,
                BreakdownKind::NonFinite,
                0,
                matvecs[c],
                0,
                0,
                f64::NAN,
            ));
            continue;
        }
        ffw_obs::series_push("solver.bicgstab.residual", res[c]);
        if res[c] < cfg.tol {
            stats[c] = Some(SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: 0,
                matvecs: matvecs[c],
                rel_residual: res[c],
                converged: true,
            });
            continue;
        }
        if guard.is_some() {
            // Baseline snapshot: the fresh residual *is* the true residual,
            // so the cycle-start state is verified by construction and is
            // the rollback target until the first periodic audit passes.
            snaps[c] = Some(ColSnap {
                x: xs[c].clone(),
                r: r[c].clone(),
                p: p[c].clone(),
                v: v[c].clone(),
                rho: rho[c],
                alpha: alpha[c],
                omega: omega[c],
                res: res[c],
                iters: iters[c],
                matvecs: matvecs[c],
            });
        }
        active.push(c);
    }

    while !active.is_empty() {
        // Columns rolled back mid-pass re-enter the lockstep loop here.
        let mut resumed: Vec<usize> = Vec::new();
        // Budget + rho checks; columns freezing here skip the fused applies.
        let mut after_rho = Vec::with_capacity(active.len());
        for &c in &active {
            if iters[c] >= cfg.max_iters {
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: res[c],
                    converged: false,
                });
                continue;
            }
            let rn = zdotc(&r_hat[c], &r[c]);
            if !finite_c(rn) {
                stats[c] = Some(freeze_breakdown(
                    c,
                    BreakdownKind::NonFinite,
                    iters[c],
                    matvecs[c],
                    verify_mv[c],
                    rolled[c],
                    res[c],
                ));
                continue;
            }
            if rn.abs() < 1e-300 {
                stats[c] = Some(freeze_breakdown(
                    c,
                    BreakdownKind::RhoZero,
                    iters[c],
                    matvecs[c],
                    verify_mv[c],
                    rolled[c],
                    res[c],
                ));
                continue;
            }
            rho_new[c] = rn;
            iters[c] += 1;
            let beta = (rn / rho[c]) * (alpha[c] / omega[c]);
            for i in 0..n {
                p[c][i] = r[c][i] + beta * (p[c][i] - omega[c] * v[c][i]);
            }
            after_rho.push(c);
        }
        active = after_rho;

        // v = A (M p), fused.
        if let Some(m) = precond {
            for &c in &active {
                m.apply(&p[c], &mut p_hat[c]);
            }
        }
        apply_cols(a, &active, applied(precond, &p, &p_hat), &mut v);
        let mut after_s = Vec::with_capacity(active.len());
        for &c in &active {
            matvecs[c] += 1;
            alpha[c] = rho_new[c] / zdotc(&r_hat[c], &v[c]);
            for i in 0..n {
                s[c][i] = r[c][i] - alpha[c] * v[c][i];
            }
            let s_norm = norm2(&s[c]) / b_norm[c];
            if s_norm < cfg.tol {
                axpy(alpha[c], &applied(precond, &p, &p_hat)[c], &mut xs[c]);
                if let Some(g) = guard {
                    // Audit the would-be convergence: the recursive residual
                    // here is `s` and the candidate iterate is x + alpha p.
                    verify_mv[c] += 1;
                    let drift = residual_drift(a, bs[c], &xs[c], &s[c], b_norm[c]);
                    if !(drift.is_finite() && drift <= g.rel_tol) {
                        let snap = snaps[c].as_ref().expect("guarded columns have a snapshot");
                        if guard_recover(
                            g,
                            c,
                            snap,
                            &mut xs[c],
                            &mut r[c],
                            &mut p[c],
                            &mut v[c],
                            &mut rho[c],
                            &mut alpha[c],
                            &mut omega[c],
                            &mut res[c],
                            &mut iters[c],
                            &mut matvecs[c],
                            &mut verify_mv[c],
                            &mut rolled[c],
                            &mut rollbacks[c],
                        ) {
                            resumed.push(c);
                        } else {
                            stats[c] = Some(SolveStats {
                                verify_matvecs: verify_mv[c],
                                rolled_back: rolled[c],
                                iterations: iters[c],
                                matvecs: matvecs[c],
                                rel_residual: res[c],
                                converged: false,
                            });
                        }
                        continue;
                    }
                }
                ffw_obs::series_push("solver.bicgstab.residual", s_norm);
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: s_norm,
                    converged: true,
                });
                continue;
            }
            after_s.push(c);
        }
        active = after_s;

        // t = A (M s), fused.
        if let Some(m) = precond {
            for &c in &active {
                m.apply(&s[c], &mut s_hat[c]);
            }
        }
        apply_cols(a, &active, applied(precond, &s, &s_hat), &mut t);
        let mut after_update = Vec::with_capacity(active.len());
        for &c in &active {
            matvecs[c] += 1;
            let tt = zdotc(&t[c], &t[c]);
            omega[c] = zdotc(&t[c], &s[c]) / tt;
            // Snapshot x first so a non-finite update rolls back instead of
            // poisoning the iterate (the historical silent-divergence bug:
            // NaN residuals fail every `<` comparison, so the loop ran to
            // max_iters and reported a NaN x as if it were a best effort).
            x_prev.copy_from_slice(&xs[c]);
            let (dp, ds) = (
                &applied(precond, &p, &p_hat)[c],
                &applied(precond, &s, &s_hat)[c],
            );
            for i in 0..n {
                xs[c][i] += alpha[c] * dp[i] + omega[c] * ds[i];
                r[c][i] = s[c][i] - omega[c] * t[c][i];
            }
            let res_new = norm2(&r[c]) / b_norm[c];
            if !res_new.is_finite() {
                // The rolled-back iterate does not contain this step's
                // update, so the step is not counted (`SolveStats` contract:
                // iterations = update steps reflected in the iterate).
                xs[c].copy_from_slice(&x_prev);
                iters[c] -= 1;
                stats[c] = Some(freeze_breakdown(
                    c,
                    BreakdownKind::NonFinite,
                    iters[c],
                    matvecs[c],
                    verify_mv[c],
                    rolled[c],
                    res[c],
                ));
                continue;
            }
            res[c] = res_new;
            ffw_obs::series_push("solver.bicgstab.residual", res_new);
            if res_new < cfg.tol {
                if let Some(g) = guard {
                    verify_mv[c] += 1;
                    let drift = residual_drift(a, bs[c], &xs[c], &r[c], b_norm[c]);
                    if !(drift.is_finite() && drift <= g.rel_tol) {
                        let snap = snaps[c].as_ref().expect("guarded columns have a snapshot");
                        if guard_recover(
                            g,
                            c,
                            snap,
                            &mut xs[c],
                            &mut r[c],
                            &mut p[c],
                            &mut v[c],
                            &mut rho[c],
                            &mut alpha[c],
                            &mut omega[c],
                            &mut res[c],
                            &mut iters[c],
                            &mut matvecs[c],
                            &mut verify_mv[c],
                            &mut rolled[c],
                            &mut rollbacks[c],
                        ) {
                            resumed.push(c);
                        } else {
                            stats[c] = Some(SolveStats {
                                verify_matvecs: verify_mv[c],
                                rolled_back: rolled[c],
                                iterations: iters[c],
                                matvecs: matvecs[c],
                                rel_residual: res[c],
                                converged: false,
                            });
                        }
                        continue;
                    }
                }
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: res_new,
                    converged: true,
                });
                continue;
            }
            rho[c] = rho_new[c];
            if let Some(g) = guard {
                if iters[c].is_multiple_of(g.period) {
                    // Periodic audit at a top-of-loop state: pass refreshes
                    // the rollback snapshot, failure rolls back (or, with
                    // the budget exhausted, escalates and freezes).
                    verify_mv[c] += 1;
                    let drift = residual_drift(a, bs[c], &xs[c], &r[c], b_norm[c]);
                    if drift.is_finite() && drift <= g.rel_tol {
                        snaps[c] = Some(ColSnap {
                            x: xs[c].clone(),
                            r: r[c].clone(),
                            p: p[c].clone(),
                            v: v[c].clone(),
                            rho: rho[c],
                            alpha: alpha[c],
                            omega: omega[c],
                            res: res[c],
                            iters: iters[c],
                            matvecs: matvecs[c],
                        });
                    } else {
                        let snap = snaps[c].as_ref().expect("guarded columns have a snapshot");
                        if guard_recover(
                            g,
                            c,
                            snap,
                            &mut xs[c],
                            &mut r[c],
                            &mut p[c],
                            &mut v[c],
                            &mut rho[c],
                            &mut alpha[c],
                            &mut omega[c],
                            &mut res[c],
                            &mut iters[c],
                            &mut matvecs[c],
                            &mut verify_mv[c],
                            &mut rolled[c],
                            &mut rollbacks[c],
                        ) {
                            resumed.push(c);
                        } else {
                            stats[c] = Some(SolveStats {
                                verify_matvecs: verify_mv[c],
                                rolled_back: rolled[c],
                                iterations: iters[c],
                                matvecs: matvecs[c],
                                rel_residual: res[c],
                                converged: false,
                            });
                        }
                        continue;
                    }
                }
            }
            after_update.push(c);
        }
        active = after_update;
        if !resumed.is_empty() {
            active.extend(resumed);
            active.sort_unstable();
        }
    }

    let out: Vec<SolveStats> = stats
        .into_iter()
        .map(|s| s.expect("every column finalized"))
        .collect();
    if ffw_obs::enabled() {
        for st in &out {
            ffw_obs::counter("solver.bicgstab.solves").inc();
            ffw_obs::counter("solver.bicgstab.iters").add(st.iterations as u64);
            ffw_obs::counter("solver.bicgstab.matvecs").add(st.matvecs as u64);
            ffw_obs::histogram("solver.bicgstab.iters_per_solve").record(st.iterations as u64);
        }
    }
    out
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
        // the same stats.
        let n = 48;
        let a = random_mat(n, 3, 7.0);
        let cfg = IterConfig {
            tol: 1e-9,
            max_iters: 300,
        };
        let bs: Vec<Vec<C64>> = (0..9).map(|i| random_vec(n, 11 + i)).collect();
        let solve = |width: usize| {
            let b_refs: Vec<&[C64]> = bs[..width].iter().map(|b| b.as_slice()).collect();
            let mut xs = vec![vec![C64::ZERO; n]; width];
            let stats = bicgstab_block(&a, &b_refs, &mut xs, cfg);
            (xs, stats)
        };
        let (x1, s1) = solve(1);
        assert_eq!(s1.len(), 1);
        let (x9, s9) = solve(9);
        for width in [3usize, 8] {
            let (xs, stats) = solve(width);
            for c in 0..width {
                assert_eq!(stats[c], s9[c], "column {c} stats at width {width}");
                assert_eq!(xs[c], x9[c], "column {c} iterate at width {width}");
            }
        }
        assert_eq!(s1[0], s9[0]);
        assert_eq!(x1[0], x9[0], "B=1 iterates must match bit-for-bit");
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
        let guarded = bicgstab_block_with(&a, &b_refs, &mut xs_guarded, cfg, Some(&guard), None);
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
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&corrupting, &[&b], &mut xs, cfg, Some(&guard), None);
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
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&corrupting, &[&b], &mut xs, cfg, Some(&guard), None);
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
        let id = bicgstab_block_with(&a, &b_refs, &mut xs_id, cfg, None, Some(&IdentityPrecond));
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
        let mut xs = vec![vec![C64::ZERO; n]];
        let stats = bicgstab_block_with(&poisoned, &[&b], &mut xs, cfg, None, Some(&jacobi));
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
        let mut xs_replay = vec![vec![C64::ZERO; n]];
        let replay =
            bicgstab_block_with(&m, &[&b], &mut xs_replay, replay_cfg, None, Some(&jacobi));
        assert_eq!(replay[0].iterations, stats[0].iterations);
        assert_eq!(xs_replay[0], xs[0], "replay at the reported count differs");
    }
}

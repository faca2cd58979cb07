//! Distributed forward/adjoint solves over sub-tree-partitioned vectors.
//!
//! Vectors are split across the sub-tree communicator members exactly like
//! the MLFMA pixel ranges; BiCGStab runs with *local* vector arithmetic and
//! communicator-wide inner products.

use crate::engine::DistMlfma;
use ffw_mpi::{Comm, FaultError};
use ffw_numerics::vecops::{norm2_sqr, zdotc};
use ffw_numerics::{c64, C64};
use ffw_solver::{IterConfig, SolveStats};

/// Sum-allreduce of complex scalars among an explicit member list (global
/// rank ids; `members[0]` acts as the root).
///
/// Misuse is diagnosed rather than hung: the member list is validated up
/// front (every caller must appear in its own list, members must be valid
/// and distinct), and if the member lists *across* ranks disagree — so some
/// rank waits for a contribution that never comes — the `ffw-mpi` deadlock
/// watchdog reconstructs the wait-for graph and fails the run with a report
/// naming the stuck ranks.
pub fn allreduce_scalars(comm: &Comm, members: &[usize], vals: &mut [C64]) {
    if let Err(e) = try_allreduce_scalars(comm, members, vals) {
        panic!("ffw-dist: {e}");
    }
}

/// Checked variant of [`allreduce_scalars`]: a dead or unreachable peer
/// surfaces as a typed [`FaultError`] instead of a panic, so fault-tolerant
/// drivers can unwind the rank cleanly and relaunch.
pub fn try_allreduce_scalars(
    comm: &Comm,
    members: &[usize],
    vals: &mut [C64],
) -> Result<(), FaultError> {
    if members.len() <= 1 {
        return Ok(());
    }
    let me = comm.rank();
    assert!(
        members.contains(&me),
        "allreduce_scalars: rank {me} called with member list {members:?} that \
         does not include itself"
    );
    for (i, &m) in members.iter().enumerate() {
        assert!(
            m < comm.size(),
            "allreduce_scalars: member {m} out of range (communicator has {} ranks)",
            comm.size()
        );
        assert!(
            !members[..i].contains(&m),
            "allreduce_scalars: member {m} listed twice in {members:?}"
        );
    }
    let mut packed: Vec<(f64, f64)> = vals.iter().map(|v| (v.re, v.im)).collect();
    const TAG_UP: u32 = 0x200;
    const TAG_DOWN: u32 = 0x201;
    // Every hop carries an ABFT checksum lane (the element sum) next to the
    // data. The per-message CRC already rejects in-flight bit flips; the
    // lane additionally lets the *result* of the reduction be verified: the
    // root folds the contribution lanes into the lane of the reduced vector,
    // so a receiver of the DOWN broadcast re-derives the sum and catches
    // corruption inside the reduction arithmetic itself.
    if me == members[0] {
        let mut lane = ffw_fault::abft_lane_c64(&packed);
        for &peer in &members[1..] {
            let (part, part_lane) = comm.recv_checked_laned(peer, TAG_UP)?;
            let part = part.into_c64();
            if let Some((lr, li)) = part_lane {
                lane.0 += lr;
                lane.1 += li;
            }
            for (p, q) in packed.iter_mut().zip(part) {
                p.0 += q.0;
                p.1 += q.1;
            }
        }
        for &peer in &members[1..] {
            comm.send_checked_laned(peer, TAG_DOWN, ffw_mpi::Payload::C64(packed.clone()), lane)?;
        }
    } else {
        let lane = ffw_fault::abft_lane_c64(&packed);
        comm.send_checked_laned(
            members[0],
            TAG_UP,
            ffw_mpi::Payload::C64(packed.clone()),
            lane,
        )?;
        let (down, _lane) = comm.recv_checked_laned(members[0], TAG_DOWN)?;
        packed = down.into_c64();
    }
    for (v, p) in vals.iter_mut().zip(packed) {
        *v = c64(p.0, p.1);
    }
    Ok(())
}

/// A distributed operator: applies to panels of local slices, communicating
/// internally. A single right-hand side is a panel of width 1.
pub trait DistOp {
    /// Local slice length.
    fn n_local(&self) -> usize;
    /// Checked block apply: `ys[b] = (A xs[b])_local` for a panel of `B`
    /// columns, column-wise independent. Communication failure surfaces as a
    /// typed error.
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError>;
}

/// Distributed `A = I - G0 diag(O)` over a [`DistMlfma`].
pub struct DistScatteringOp<'a, 'c> {
    /// The distributed Green's operator.
    pub g0: &'a DistMlfma<'c>,
    /// Local slice of the object vector.
    pub object_local: &'a [C64],
}

impl DistOp for DistScatteringOp<'_, '_> {
    fn n_local(&self) -> usize {
        self.object_local.len()
    }
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        assert_eq!(xs_local.len(), ys_local.len(), "block width mismatch");
        // Per-column scaling, one fused G0 traversal for the whole panel.
        let oxs: Vec<Vec<C64>> = xs_local
            .iter()
            .map(|x| {
                self.object_local
                    .iter()
                    .zip(*x)
                    .map(|(o, xi)| *o * *xi)
                    .collect()
            })
            .collect();
        let ox_refs: Vec<&[C64]> = oxs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block(&ox_refs, ys_local)?;
        for (y, x) in ys_local.iter_mut().zip(xs_local) {
            for (yi, xi) in y.iter_mut().zip(*x) {
                *yi = *xi - *yi;
            }
        }
        Ok(())
    }
}

/// Distributed adjoint `A^H = I - diag(conj O) G0^H` (conjugation trick).
pub struct DistAdjointScatteringOp<'a, 'c> {
    /// The distributed Green's operator.
    pub g0: &'a DistMlfma<'c>,
    /// Local slice of the object vector.
    pub object_local: &'a [C64],
}

impl DistOp for DistAdjointScatteringOp<'_, '_> {
    fn n_local(&self) -> usize {
        self.object_local.len()
    }
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        assert_eq!(xs_local.len(), ys_local.len(), "block width mismatch");
        let xcs: Vec<Vec<C64>> = xs_local
            .iter()
            .map(|x| x.iter().map(|v| v.conj()).collect())
            .collect();
        let xc_refs: Vec<&[C64]> = xcs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block(&xc_refs, ys_local)?;
        for (y, x) in ys_local.iter_mut().zip(xs_local) {
            for ((yi, xi), o) in y.iter_mut().zip(*x).zip(self.object_local) {
                *yi = *xi - o.conj() * yi.conj();
            }
        }
        Ok(())
    }
}

/// Raw distributed `G0` as a [`DistOp`].
pub struct DistG0Op<'a, 'c>(pub &'a DistMlfma<'c>);

impl DistOp for DistG0Op<'_, '_> {
    fn n_local(&self) -> usize {
        self.0.n_local()
    }
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        self.0.try_apply_block(xs_local, ys_local)
    }
}

fn finite_c(v: C64) -> bool {
    v.re.is_finite() && v.im.is_finite()
}

/// Fused `dst[c] = A src[c]` over the active columns of a panel, counting
/// one matvec per column.
fn block_apply_active<A: DistOp + ?Sized>(
    a: &A,
    active: &[usize],
    src: &[Vec<C64>],
    dst: &mut [Vec<C64>],
    cols: &mut [Column],
) -> Result<(), FaultError> {
    let refs: Vec<&[C64]> = active.iter().map(|&c| src[c].as_slice()).collect();
    let mut outs: Vec<Vec<C64>> = active
        .iter()
        .map(|&c| std::mem::take(&mut dst[c]))
        .collect();
    let result = a.try_apply_block_local(&refs, &mut outs);
    for (k, &c) in active.iter().enumerate() {
        dst[c] = std::mem::take(&mut outs[k]);
        cols[c].matvecs += 1;
    }
    result
}

/// What one column carries through a lockstep sweep and, if it breaks down,
/// into its retry: the iteration budget is shared across both.
#[derive(Clone)]
struct Column {
    /// Reduced `||b||`, identical on every member rank.
    b_norm: f64,
    iters: usize,
    matvecs: usize,
    /// Last finite relative residual.
    res: f64,
    /// Set once the column converged or ran out of budget.
    stats: Option<SolveStats>,
}

impl Column {
    fn finish(&mut self, rel_residual: f64, converged: bool) {
        self.stats = Some(SolveStats {
            verify_matvecs: 0,
            rolled_back: 0,
            iterations: self.iters,
            matvecs: self.matvecs,
            rel_residual,
            converged,
        });
    }
}

/// Batched distributed BiCGStab: iterates `B` right-hand sides in lockstep,
/// so every matvec is a fused [`DistOp::try_apply_block_local`] over the
/// still-active columns and every inner product for the panel rides in ONE
/// allreduce instead of `B` — this is the paper's message-fusion idea
/// extended along the illumination dimension. A single system is a panel of
/// width 1; this is the only distributed Krylov recurrence.
///
/// Per-column arithmetic never mixes columns, so each column's trajectory
/// (iterates, residuals, stats) is bit-identical at every panel width.
/// Converged or broken-down columns are frozen out of subsequent fused
/// applies; every freeze decision is made from *reduced* scalars, which are
/// bit-identical on all member ranks, so ranks narrow the active set
/// identically and stay in lockstep. A column that breaks down (rho
/// underflow, NaN/Inf) is retried once from its last finite iterate after
/// the lockstep sweep — a fresh width-1 sweep, which re-derives `r` and
/// `r_hat` from the current `x` and so leaves the degenerate Krylov
/// directions behind while keeping the progress made; a column whose retry
/// breaks down too surfaces [`FaultError::KrylovBreakdown`], a
/// communication failure aborts the whole batch with the originating error.
pub fn try_dist_bicgstab_block<A: DistOp + ?Sized>(
    a: &A,
    comm: &Comm,
    members: &[usize],
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Result<Vec<SolveStats>, FaultError> {
    let width = bs.len();
    assert_eq!(xs.len(), width, "bs/xs width mismatch");
    if width == 0 {
        return Ok(Vec::new());
    }
    let n = bs[0].len();
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert_eq!(b.len(), n, "ragged right-hand sides");
        assert_eq!(x.len(), n, "ragged initial guesses");
    }

    // One fused reduction for all B norms.
    let mut b_sqr: Vec<C64> = bs.iter().map(|b| c64(norm2_sqr(b), 0.0)).collect();
    try_allreduce_scalars(comm, members, &mut b_sqr)?;
    let mut cols: Vec<Column> = b_sqr
        .iter()
        .map(|v| Column {
            b_norm: v.re.sqrt(),
            iters: 0,
            matvecs: 0,
            res: 0.0,
            stats: None,
        })
        .collect();
    for (col, x) in cols.iter_mut().zip(xs.iter_mut()) {
        if col.b_norm == 0.0 {
            // a zero right-hand side is solved exactly by x = 0
            x.iter_mut().for_each(|v| *v = C64::ZERO);
            col.finish(0.0, true);
        }
    }

    // Every rank derives `broken` from the same reduced scalars, so the
    // per-column retries below stay collective across the communicator.
    let mut broken = lockstep_sweep(a, comm, members, bs, xs, cfg, &mut cols)?;
    broken.sort_by_key(|b| b.0);
    let breakdown = |col: &Column, detail: String, restarts: u32| FaultError::KrylovBreakdown {
        rank: comm.rank(),
        iterations: col.iters,
        rel_residual: col.res,
        detail: format!("{detail} ({restarts} restart(s) attempted)"),
    };
    for (c, detail) in broken {
        let x_finite = xs[c].iter().all(|v| finite_c(*v));
        if !(cols[c].iters < cfg.max_iters && x_finite) {
            return Err(breakdown(&cols[c], detail, 0));
        }
        let again = lockstep_sweep(
            a,
            comm,
            members,
            &bs[c..=c],
            &mut xs[c..=c],
            cfg,
            &mut cols[c..=c],
        )?;
        if let Some((_, detail)) = again.into_iter().next() {
            return Err(breakdown(&cols[c], detail, 1));
        }
    }
    Ok(cols
        .into_iter()
        .map(|col| col.stats.expect("every column finalized"))
        .collect())
}

/// One lockstep BiCGStab sweep over the unfinished columns of a panel: fresh
/// residuals from the current `xs`, then iterate until every column has
/// converged, spent the budget in `cfg` (counted from `cols[c].iters`), or
/// broken down. Returns the broken columns with the reason; their `xs[c]` is
/// left at the last finite iterate and `cols[c].res` at the last finite
/// residual.
fn lockstep_sweep<A: DistOp + ?Sized>(
    a: &A,
    comm: &Comm,
    members: &[usize],
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    cols: &mut [Column],
) -> Result<Vec<(usize, String)>, FaultError> {
    let width = bs.len();
    let n = bs[0].len();
    let mut broken: Vec<(usize, String)> = Vec::new();
    let mut active: Vec<usize> = (0..width).filter(|&c| cols[c].stats.is_none()).collect();

    let mut r = vec![vec![C64::ZERO; n]; width];
    let mut r_hat = vec![Vec::new(); width];
    let mut v = vec![vec![C64::ZERO; n]; width];
    let mut p = vec![vec![C64::ZERO; n]; width];
    let mut s = vec![vec![C64::ZERO; n]; width];
    let mut t = vec![vec![C64::ZERO; n]; width];
    let mut x_prev = vec![vec![C64::ZERO; n]; width];
    let mut rho = vec![C64::ONE; width];
    let mut rho_next = vec![C64::ONE; width];
    let mut alpha = vec![C64::ONE; width];
    let mut omega = vec![C64::ONE; width];

    if !active.is_empty() {
        // r = b - A x, one fused traversal for the panel
        block_apply_active(a, &active, &*xs, &mut r, cols)?;
        for &c in &active {
            for (ri, bi) in r[c].iter_mut().zip(bs[c]) {
                *ri = *bi - *ri;
            }
            r_hat[c] = r[c].clone();
        }
        let mut rn: Vec<C64> = active.iter().map(|&c| c64(norm2_sqr(&r[c]), 0.0)).collect();
        try_allreduce_scalars(comm, members, &mut rn)?;
        let mut survivors = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let res = rn[k].re.sqrt() / cols[c].b_norm;
            if !res.is_finite() {
                cols[c].res = f64::NAN;
                broken.push((c, "initial residual is not finite".into()));
                continue;
            }
            cols[c].res = res;
            if res < cfg.tol {
                cols[c].finish(res, true);
            } else {
                survivors.push(c);
            }
        }
        active = survivors;
    }

    while !active.is_empty() {
        // budget check (iters is deterministic and identical on every rank)
        active.retain(|&c| {
            let in_budget = cols[c].iters < cfg.max_iters;
            if !in_budget {
                let res = cols[c].res;
                cols[c].finish(res, false);
            }
            in_budget
        });
        if active.is_empty() {
            break;
        }

        // phase 1: rho = <r_hat, r>, one fused reduction for the panel
        let mut dots: Vec<C64> = active.iter().map(|&c| zdotc(&r_hat[c], &r[c])).collect();
        try_allreduce_scalars(comm, members, &mut dots)?;
        let mut survivors = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let rho_new = dots[k];
            if !finite_c(rho_new) {
                broken.push((c, "rho inner product is not finite".into()));
                continue;
            }
            if rho_new.abs() < 1e-300 {
                broken.push((c, "rho underflow".into()));
                continue;
            }
            cols[c].iters += 1;
            let beta = (rho_new / rho[c]) * (alpha[c] / omega[c]);
            for i in 0..n {
                p[c][i] = r[c][i] + beta * (p[c][i] - omega[c] * v[c][i]);
            }
            rho_next[c] = rho_new;
            survivors.push(c);
        }
        active = survivors;
        if active.is_empty() {
            break;
        }

        block_apply_active(a, &active, &p, &mut v, cols)?;
        // phase 2: alpha and the early s-norm exit
        let mut dots: Vec<C64> = active.iter().map(|&c| zdotc(&r_hat[c], &v[c])).collect();
        try_allreduce_scalars(comm, members, &mut dots)?;
        for (k, &c) in active.iter().enumerate() {
            alpha[c] = rho_next[c] / dots[k];
            for i in 0..n {
                s[c][i] = r[c][i] - alpha[c] * v[c][i];
            }
        }
        let mut sn: Vec<C64> = active.iter().map(|&c| c64(norm2_sqr(&s[c]), 0.0)).collect();
        try_allreduce_scalars(comm, members, &mut sn)?;
        let mut survivors = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let s_norm = sn[k].re.sqrt() / cols[c].b_norm;
            if s_norm < cfg.tol {
                for i in 0..n {
                    xs[c][i] += alpha[c] * p[c][i];
                }
                cols[c].finish(s_norm, true);
            } else {
                survivors.push(c);
            }
        }
        active = survivors;
        if active.is_empty() {
            break;
        }

        block_apply_active(a, &active, &s, &mut t, cols)?;
        // phase 3: omega, the x/r update and the residual check — the two
        // omega dots for every column ride in one reduction
        let mut dots: Vec<C64> = Vec::with_capacity(2 * active.len());
        for &c in &active {
            dots.push(zdotc(&t[c], &s[c]));
            dots.push(zdotc(&t[c], &t[c]));
        }
        try_allreduce_scalars(comm, members, &mut dots)?;
        for (k, &c) in active.iter().enumerate() {
            omega[c] = dots[2 * k] / dots[2 * k + 1];
            // Snapshot x so a non-finite update can be rolled back instead
            // of poisoning the iterate (NaN fails every `<` comparison, so
            // an unguarded loop silently runs to max_iters with a NaN x).
            x_prev[c].copy_from_slice(&xs[c]);
            for i in 0..n {
                xs[c][i] += alpha[c] * p[c][i] + omega[c] * s[c][i];
                r[c][i] = s[c][i] - omega[c] * t[c][i];
            }
        }
        let mut rn: Vec<C64> = active.iter().map(|&c| c64(norm2_sqr(&r[c]), 0.0)).collect();
        try_allreduce_scalars(comm, members, &mut rn)?;
        let mut survivors = Vec::with_capacity(active.len());
        for (k, &c) in active.iter().enumerate() {
            let res_new = rn[k].re.sqrt() / cols[c].b_norm;
            if !res_new.is_finite() {
                // Roll back to the last finite iterate, keep the old res.
                // The uncounted step follows the SolveStats contract:
                // iterations = update steps reflected in the iterate.
                xs[c].copy_from_slice(&x_prev[c]);
                cols[c].iters -= 1;
                broken.push((c, "residual became non-finite".into()));
                continue;
            }
            cols[c].res = res_new;
            if res_new < cfg.tol {
                cols[c].finish(res_new, true);
            } else {
                rho[c] = rho_next[c];
                survivors.push(c);
            }
        }
        active = survivors;
    }
    Ok(broken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DistMlfma;
    use ffw_geometry::Domain;
    use ffw_mlfma::{Accuracy, MlfmaPlan};
    use ffw_numerics::vecops::rel_diff;
    use std::sync::Arc;

    fn random_x(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                c64(a, b)
            })
            .collect()
    }

    #[test]
    fn allreduce_scalars_sums_across_members() {
        let (results, _) = ffw_mpi::run(4, |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut vals = [
                c64(comm.rank() as f64, 1.0),
                c64(2.0, -(comm.rank() as f64)),
            ];
            allreduce_scalars(&comm, &members, &mut vals);
            vals
        });
        for r in results {
            assert_eq!(r[0], c64(6.0, 4.0));
            assert_eq!(r[1], c64(8.0, -6.0));
        }
    }

    #[test]
    fn allreduce_scalars_subset_only_touches_members() {
        // ranks {0, 2} reduce; ranks {1, 3} reduce; results independent
        let (results, _) = ffw_mpi::run(4, |comm| {
            let group = comm.rank() % 2;
            let members: Vec<usize> = vec![group, group + 2];
            let mut v = [c64((comm.rank() + 1) as f64, 0.0)];
            allreduce_scalars(&comm, &members, &mut v);
            v[0].re
        });
        assert_eq!(results, vec![4.0, 6.0, 4.0, 6.0]); // 1+3, 2+4
    }

    #[test]
    fn allreduce_scalars_rejects_nonmember_caller() {
        // A rank reducing over a member list it is not part of is a protocol
        // bug that previously manifested as a hang; it must now fail fast
        // with a diagnostic (the rank's own assert, propagated by ffw-mpi).
        let result = std::panic::catch_unwind(|| {
            let _ = ffw_mpi::run_with_timeout(3, std::time::Duration::from_millis(80), |comm| {
                // Ranks 0 and 1 reduce correctly; rank 2 passes a member list
                // it does not belong to.
                let members = vec![0, 1];
                let mut v = [c64(1.0, 0.0)];
                allreduce_scalars(&comm, &members, &mut v);
            });
        });
        let msg = result
            .expect_err("must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("does not include itself"), "got: {msg}");
    }

    #[test]
    fn width_one_solve_of_the_distributed_scattering_system() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 3).iter().map(|v| v.scale(5.0)).collect();
        let b = random_x(n, 5);
        let n_ranks = 4;
        let per = n / n_ranks;
        let plan2 = Arc::clone(&plan);
        let (obj_ref, b_ref) = (&object, &b);
        let (slices, _) = ffw_mpi::run(n_ranks, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let a = DistScatteringOp {
                g0: &g0,
                object_local: &obj_ref[r * per..(r + 1) * per],
            };
            let mut xs = vec![vec![C64::ZERO; per]];
            let stats = try_dist_bicgstab_block(
                &a,
                &comm,
                &members,
                &[&b_ref[r * per..(r + 1) * per]],
                &mut xs,
                ffw_solver::IterConfig {
                    tol: 1e-9,
                    max_iters: 500,
                },
            )
            .expect("solve");
            assert!(stats[0].converged, "{stats:?}");
            xs.remove(0)
        });
        let x: Vec<C64> = slices.into_iter().flatten().collect();
        // verify the residual with an independent single-rank apply
        let plan3 = Arc::clone(&plan);
        let x_ref = &x;
        let (ys, _) = ffw_mpi::run(1, move |comm| {
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan3), vec![0], true);
            let a = DistScatteringOp {
                g0: &g0,
                object_local: obj_ref,
            };
            let mut ys = vec![vec![C64::ZERO; x_ref.len()]];
            a.try_apply_block_local(&[x_ref], &mut ys).expect("apply");
            ys.remove(0)
        });
        assert!(rel_diff(&ys[0], &b) < 1e-7, "{}", rel_diff(&ys[0], &b));
    }

    /// A column of the batched distributed solver must reproduce its own
    /// width-1 solve bit-for-bit — iterates AND stats — at a width that
    /// exercises real lockstep narrowing, including a zero right-hand side
    /// column riding along.
    #[test]
    fn block_solver_bit_identical_to_scalar_per_column() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 21).iter().map(|v| v.scale(3.0)).collect();
        let cfg = ffw_solver::IterConfig {
            tol: 1e-8,
            max_iters: 400,
        };
        for width in [2usize, 3] {
            let bs_full: Vec<Vec<C64>> = (0..width)
                .map(|c| {
                    if width > 1 && c == 1 {
                        vec![C64::ZERO; n] // zero column must short-circuit
                    } else {
                        random_x(n, 60 + c as u64)
                    }
                })
                .collect();
            let n_ranks = 2;
            let per = n / n_ranks;
            let plan2 = Arc::clone(&plan);
            let (obj_ref, bs_ref) = (&object, &bs_full);
            let (results, _) = ffw_mpi::run(n_ranks, move |comm| {
                let members: Vec<usize> = (0..comm.size()).collect();
                let r = comm.rank();
                let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
                let a = DistScatteringOp {
                    g0: &g0,
                    object_local: &obj_ref[r * per..(r + 1) * per],
                };
                let b_locals: Vec<&[C64]> =
                    bs_ref.iter().map(|b| &b[r * per..(r + 1) * per]).collect();
                // batched solve
                let mut xs = vec![vec![C64::ZERO; per]; width];
                let stats = try_dist_bicgstab_block(&a, &comm, &members, &b_locals, &mut xs, cfg)
                    .expect("block solve");
                // width-1 reference, one column at a time
                for (c, b_local) in b_locals.iter().enumerate() {
                    let mut x1 = vec![vec![C64::ZERO; per]];
                    let s1 = try_dist_bicgstab_block(&a, &comm, &members, &[b_local], &mut x1, cfg)
                        .expect("width-1 solve")
                        .remove(0);
                    assert_eq!(xs[c], x1[0], "column {c} of width {width} drifted");
                    assert_eq!(
                        (stats[c].iterations, stats[c].matvecs, stats[c].converged),
                        (s1.iterations, s1.matvecs, s1.converged),
                        "column {c} stats mismatch"
                    );
                    assert_eq!(
                        stats[c].rel_residual.to_bits(),
                        s1.rel_residual.to_bits(),
                        "column {c} residual not bit-identical"
                    );
                }
                stats.iter().map(|s| s.converged).collect::<Vec<_>>()
            });
            for per_rank in results {
                assert!(per_rank.iter().all(|&ok| ok), "width {width} not converged");
            }
        }
    }

    /// A dense single-rank operator whose column 0 returns NaN on the block
    /// applies selected by `poison` (1-based call index).
    struct FlakyOp<F: Fn(usize) -> bool> {
        m: ffw_numerics::linalg::Matrix,
        calls: std::sync::atomic::AtomicUsize,
        poison: F,
    }

    impl<F: Fn(usize) -> bool> DistOp for FlakyOp<F> {
        fn n_local(&self) -> usize {
            self.m.rows()
        }
        fn try_apply_block_local(
            &self,
            xs: &[&[C64]],
            ys: &mut [Vec<C64>],
        ) -> Result<(), FaultError> {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                self.m.matvec(x, y);
            }
            if (self.poison)(call) {
                ys[0].iter_mut().for_each(|v| *v = c64(f64::NAN, f64::NAN));
            }
            Ok(())
        }
    }

    fn flaky<F: Fn(usize) -> bool>(n: usize, poison: F) -> FlakyOp<F> {
        let noise = random_x(n * n, 7);
        let m = ffw_numerics::linalg::Matrix::from_fn(n, n, |r, c| {
            noise[r * n + c] + if r == c { c64(6.0, 0.0) } else { C64::ZERO }
        });
        FlakyOp {
            m,
            calls: std::sync::atomic::AtomicUsize::new(0),
            poison,
        }
    }

    /// The breakdown contract of the distributed kernel: a column that goes
    /// non-finite is rolled back to its last finite iterate and retried once
    /// as a width-1 panel (siblings untouched); if the retry breaks down too
    /// the solve surfaces `KrylovBreakdown` naming one restart.
    #[test]
    fn broken_column_retries_once_then_surfaces_breakdown() {
        let n = 24;
        let cfg = ffw_solver::IterConfig {
            tol: 1e-10,
            max_iters: 100,
        };
        let bs = [random_x(n, 31), random_x(n, 33)];
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let (results, _) = ffw_mpi::run(1, |comm| {
            let solve = |op: &dyn DistOp| {
                let mut xs = vec![vec![C64::ZERO; n]; 2];
                let out = try_dist_bicgstab_block(op, &comm, &[0], &b_refs, &mut xs, cfg);
                (out, xs)
            };
            let (clean, x_clean) = solve(&flaky(n, |_| false));
            // block apply 4 is the `A p` of the panel's second iteration
            let (transient, x_transient) = solve(&flaky(n, |call| call == 4));
            let (persistent, _) = solve(&flaky(n, |call| call >= 4));
            (clean, x_clean, transient, x_transient, persistent)
        });
        let (clean, x_clean, transient, x_transient, persistent) =
            results.into_iter().next().expect("one rank");
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
    fn adjoint_op_consistent_with_forward() {
        // <A x, y> == <x, A^H y> on distributed slices (2 ranks)
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object = random_x(n, 9);
        let x = random_x(n, 11);
        let y = random_x(n, 13);
        let per = n / 2;
        let plan2 = Arc::clone(&plan);
        let (o_ref, x_ref, y_ref) = (&object, &x, &y);
        let (dots, _) = ffw_mpi::run(2, move |comm| {
            let members: Vec<usize> = vec![0, 1];
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let ol = &o_ref[r * per..(r + 1) * per];
            let a = DistScatteringOp {
                g0: &g0,
                object_local: ol,
            };
            let ah = DistAdjointScatteringOp {
                g0: &g0,
                object_local: ol,
            };
            let mut ax = vec![vec![C64::ZERO; per]];
            a.try_apply_block_local(&[&x_ref[r * per..(r + 1) * per]], &mut ax)
                .expect("forward apply");
            let mut ahy = vec![vec![C64::ZERO; per]];
            ah.try_apply_block_local(&[&y_ref[r * per..(r + 1) * per]], &mut ahy)
                .expect("adjoint apply");
            let mut d = [
                zdotc(&ax[0], &y_ref[r * per..(r + 1) * per]),
                zdotc(&x_ref[r * per..(r + 1) * per], &ahy[0]),
            ];
            allreduce_scalars(&comm, &members, &mut d);
            d
        });
        let (lhs, rhs) = (dots[0][0], dots[0][1]);
        // The adjoint reuses G0^T = G0, which the MLFMA *approximation*
        // satisfies only to its own accuracy (~1e-3 at Accuracy::low); the
        // identity must hold at that level, not machine precision.
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
        );
    }
}

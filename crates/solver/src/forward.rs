//! The forward-scattering system and its adjoint.
//!
//! Discretized volume integral equation (paper Eq. 3):
//! `phi = [I - G0 diag(O)]^{-1} phi_inc`, i.e. the system
//! `A phi = phi_inc` with `A = I - G0 diag(O)`.
//!
//! The adjoint system `A^H z = rhs` is needed for the DBIM gradient
//! (`grad = F^H b`, Section VI-B). Because `G0` is *complex symmetric*
//! (`G0^T = G0`, a property of the reciprocal Green's function), its
//! Hermitian transpose is its conjugate: `G0^H x = conj(G0 conj(x))` — so the
//! same MLFMA engine serves both systems without any new operators.
//!
//! Both operators are written over the [`DistOp`] seam: `diag(O)` acts on
//! this rank's slice, the `G0` product and the reductions are whatever the
//! wrapped operator does, so one pair serves the in-process engine and a
//! sub-tree rank of the distributed one. The panel `G0` reads (`O . x`, or
//! `conj x`) is on lease from the caller's [`Workspace`] for the length of
//! one apply.
//!
//! [`BicgstabBackend`] is the pair bound to one `(G0, object)` with the one
//! BiCGStab kernel: the forward engine every reconstruction solves through.

use crate::block::{bicgstab_block_with, try_bicgstab_block};
use crate::krylov::{width_one, IterConfig, SolveStats};
use crate::op::DistOp;
use crate::precond::Precond;
use crate::verify::DriftGuard;
use crate::workspace::{Leased, Workspace};
use ffw_fault::FaultError;
use ffw_numerics::C64;
use std::convert::Infallible;

/// `A = I - G0 diag(O)`: the forward-scattering operator.
pub struct ScatteringOp<'a, G: DistOp + ?Sized> {
    g0: &'a G,
    object: &'a [C64],
    ws: &'a Workspace,
}

impl<'a, G: DistOp + ?Sized> ScatteringOp<'a, G> {
    /// Builds the operator for this rank's slice of the object contrast
    /// function `O` (tree order).
    pub fn new(g0: &'a G, object: &'a [C64], ws: &'a Workspace) -> Self {
        assert_eq!(g0.n_local(), object.len());
        ScatteringOp { g0, object, ws }
    }
}

impl<G: DistOp + ?Sized> DistOp for ScatteringOp<'_, G> {
    type Error = G::Error;
    fn n_local(&self) -> usize {
        self.object.len()
    }
    /// Per-column scaling, one fused `G0` traversal for the whole panel.
    fn try_apply_block_local(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), G::Error> {
        assert_eq!(xs.len(), ys.len(), "block width mismatch");
        let mut oxs = self.ws.lease(self.object.len(), xs.len());
        for (ox, x) in oxs.iter_mut().zip(xs) {
            for ((oxi, xi), oi) in ox.iter_mut().zip(*x).zip(self.object) {
                *oxi = *xi * *oi;
            }
        }
        let ox_refs: Vec<&[C64]> = oxs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block_local(&ox_refs, ys)?;
        for (y, x) in ys.iter_mut().zip(xs) {
            for (yi, xi) in y.iter_mut().zip(*x) {
                *yi = *xi - *yi;
            }
        }
        Ok(())
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), G::Error> {
        self.g0.reduce(vals)
    }
}

/// `A^H = I - diag(conj(O)) G0^H`, realized via the conjugation trick.
pub struct AdjointScatteringOp<'a, G: DistOp + ?Sized> {
    g0: &'a G,
    object: &'a [C64],
    ws: &'a Workspace,
}

impl<'a, G: DistOp + ?Sized> AdjointScatteringOp<'a, G> {
    /// Builds the adjoint operator.
    pub fn new(g0: &'a G, object: &'a [C64], ws: &'a Workspace) -> Self {
        assert_eq!(g0.n_local(), object.len());
        AdjointScatteringOp { g0, object, ws }
    }
}

/// `conj xs[b]` for a panel, on lease from `ws`.
fn conj_panel<'w>(xs: &[&[C64]], ws: &'w Workspace) -> Leased<'w> {
    let mut xcs = ws.lease(xs.first().map_or(0, |x| x.len()), xs.len());
    for (xc, x) in xcs.iter_mut().zip(xs) {
        for (ci, xi) in xc.iter_mut().zip(*x) {
            *ci = xi.conj();
        }
    }
    xcs
}

impl<G: DistOp + ?Sized> DistOp for AdjointScatteringOp<'_, G> {
    type Error = G::Error;
    fn n_local(&self) -> usize {
        self.object.len()
    }
    /// `G0^H x = conj(G0 conj(x))`, the `G0` product fused over the panel.
    fn try_apply_block_local(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), G::Error> {
        assert_eq!(xs.len(), ys.len(), "block width mismatch");
        let xcs = conj_panel(xs, self.ws);
        let xc_refs: Vec<&[C64]> = xcs.iter().map(|v| v.as_slice()).collect();
        self.g0.try_apply_block_local(&xc_refs, ys)?;
        for (y, x) in ys.iter_mut().zip(xs) {
            for ((yi, xi), oi) in y.iter_mut().zip(*x).zip(self.object) {
                *yi = *xi - oi.conj() * yi.conj();
            }
        }
        Ok(())
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), G::Error> {
        self.g0.reduce(vals)
    }
}

/// `ys[b] = G0^H xs[b]` for a symmetric `G0` (conjugation trick), fused into
/// one block apply.
pub fn g0_adjoint_apply_block<G: DistOp + ?Sized>(
    g0: &G,
    xs: &[&[C64]],
    ys: &mut [Vec<C64>],
    ws: &Workspace,
) -> Result<(), G::Error> {
    let xcs = conj_panel(xs, ws);
    let xc_refs: Vec<&[C64]> = xcs.iter().map(|v| v.as_slice()).collect();
    g0.try_apply_block_local(&xc_refs, ys)?;
    for y in ys.iter_mut() {
        for v in y.iter_mut() {
            *v = v.conj();
        }
    }
    Ok(())
}

/// A right preconditioner for the forward system `A` and one for its
/// adjoint `A^H`, in that order.
pub type PrecondPair<'a> = (&'a dyn Precond, &'a dyn Precond);

/// The forward engine of a reconstruction: BiCGStab under its breakdown
/// policy ([`crate::try_bicgstab_block`]) on the forward or the adjoint
/// scattering operator of one `(G0, object)` pair. `object` is this rank's
/// slice of the contrast function, so the same engine serves an in-process
/// `G0` and a sub-tree rank of the distributed one; every N-vector a solve
/// needs is on lease from `ws`, the run's workspace.
///
/// Both solves take `xs` as the initial guess (zero or a warm start) and
/// overwrite it. All columns iterate against the one operator so applies
/// fuse into panels, with per-column convergence masking; a column's
/// trajectory is bit-identical at any panel width. A solve fails typed when
/// the operator fails (a dead peer, a corrupted panel on a rank grid) or a
/// Krylov breakdown survives its one retry.
///
/// With a `guard`, the kernel audits its recursive residual against the true
/// `b - A x` every [`DriftGuard::period`] steps and at every would-be
/// convergence, rolls back to the last verified iterate on divergence and
/// escalates (column surfaced unconverged, guard counter bumped) once the
/// rollback budget is spent; clean solves are bit-identical to unguarded ones.
pub struct BicgstabBackend<'a, G: DistOp + ?Sized> {
    g0: &'a G,
    object: &'a [C64],
    guard: Option<&'a DriftGuard>,
    precond: Option<PrecondPair<'a>>,
    ws: &'a Workspace,
}

impl<'a, G: DistOp + ?Sized> BicgstabBackend<'a, G>
where
    FaultError: From<G::Error>,
{
    /// Binds the engine to one `(G0, object)` pair, with the optional drift
    /// guard and preconditioner pair riding into every solve.
    pub fn new(
        g0: &'a G,
        object: &'a [C64],
        guard: Option<&'a DriftGuard>,
        precond: Option<PrecondPair<'a>>,
        ws: &'a Workspace,
    ) -> Self {
        assert_eq!(g0.n_local(), object.len());
        BicgstabBackend {
            g0,
            object,
            guard,
            precond,
            ws,
        }
    }

    /// Solves `A xs[c] = bs[c]` for a panel of columns in lockstep.
    pub fn solve_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = ScatteringOp::new(self.g0, self.object, self.ws);
        let precond = self.precond.map(|p| p.0);
        try_bicgstab_block(&a, bs, xs, cfg, self.guard, precond, self.ws)
    }

    /// Solves `A^H xs[c] = bs[c]` for a panel of columns in lockstep.
    pub fn solve_adjoint_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = AdjointScatteringOp::new(self.g0, self.object, self.ws);
        let precond = self.precond.map(|p| p.1);
        try_bicgstab_block(&a, bs, xs, cfg, self.guard, precond, self.ws)
    }
}

/// Solves the forward problem `[I - G0 diag(O)] phi = phi_inc` with BiCGStab:
/// [`solve_forward_block`] at panel width 1. `phi` should carry the initial
/// guess (zero, or a previous field for warm starts); it is overwritten with
/// the solution.
pub fn solve_forward<G: DistOp<Error = Infallible> + ?Sized>(
    g0: &G,
    object: &[C64],
    phi_inc: &[C64],
    phi: &mut [C64],
    cfg: IterConfig,
) -> SolveStats {
    let Ok(stats) = width_one(phi_inc, phi, |bs, xs| {
        Ok::<_, Infallible>(solve_forward_block(g0, object, bs, xs, cfg))
    });
    stats
}

/// Solves the adjoint problem `A^H z = rhs`: [`solve_adjoint_block`] at
/// panel width 1.
pub fn solve_adjoint<G: DistOp<Error = Infallible> + ?Sized>(
    g0: &G,
    object: &[C64],
    rhs: &[C64],
    z: &mut [C64],
    cfg: IterConfig,
) -> SolveStats {
    let Ok(stats) = width_one(rhs, z, |bs, xs| {
        Ok::<_, Infallible>(solve_adjoint_block(g0, object, bs, xs, cfg))
    });
    stats
}

/// Batched forward solve: all transmitter systems share the same scattering
/// operator and iterate in lockstep (one fused `G0` block apply per Krylov
/// step). `phis[b]` carries each column's initial guess and is overwritten.
pub fn solve_forward_block<G: DistOp<Error = Infallible> + ?Sized>(
    g0: &G,
    object: &[C64],
    phi_incs: &[&[C64]],
    phis: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Vec<SolveStats> {
    let ws = Workspace::new();
    let a = ScatteringOp::new(g0, object, &ws);
    bicgstab_block_with(&a, phi_incs, phis, cfg, None, None, &ws)
}

/// Batched adjoint solve `A^H zs[b] = rhss[b]`, lockstep across columns.
pub fn solve_adjoint_block<G: DistOp<Error = Infallible> + ?Sized>(
    g0: &G,
    object: &[C64],
    rhss: &[&[C64]],
    zs: &mut [Vec<C64>],
    cfg: IterConfig,
) -> Vec<SolveStats> {
    let ws = Workspace::new();
    let a = AdjointScatteringOp::new(g0, object, &ws);
    bicgstab_block_with(&a, rhss, zs, cfg, None, None, &ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::c64;

    /// `y = A x` through the seam, for an operator that cannot fail.
    fn apply<A: DistOp<Error = Infallible>>(a: &A, x: &[C64], y: &mut Vec<C64>) {
        let Ok(()) = a.try_apply_block_local(&[x], std::slice::from_mut(y));
    }
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::vecops::{rel_diff, zdotc};

    /// A small random complex-symmetric "G0" stand-in.
    fn symmetric_g0(n: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.2 * (((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5)
        };
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in r..n {
                let v = c64(next(), next());
                *m.at_mut(r, c) = v;
                *m.at_mut(c, r) = v;
            }
        }
        m
    }

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
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
    fn scattering_op_matches_assembled_matrix() {
        let n = 24;
        let g0 = symmetric_g0(n, 1);
        let o = random_vec(n, 2);
        let ws = Workspace::new();
        let a_op = ScatteringOp::new(&g0, &o, &ws);
        // assemble I - G0 diag(O)
        let assembled = Matrix::from_fn(n, n, |r, c| {
            let v = -(g0.at(r, c) * o[c]);
            if r == c {
                v + C64::ONE
            } else {
                v
            }
        });
        let x = random_vec(n, 3);
        let mut y1 = vec![C64::ZERO; n];
        let mut y2 = vec![C64::ZERO; n];
        apply(&a_op, &x, &mut y1);
        assembled.matvec(&x, &mut y2);
        assert!(rel_diff(&y1, &y2) < 1e-13);
    }

    #[test]
    fn adjoint_satisfies_inner_product_identity() {
        let n = 20;
        let g0 = symmetric_g0(n, 5);
        let o = random_vec(n, 6);
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &o, &ws);
        let ah = AdjointScatteringOp::new(&g0, &o, &ws);
        let x = random_vec(n, 7);
        let y = random_vec(n, 8);
        let mut ax = vec![C64::ZERO; n];
        let mut ahy = vec![C64::ZERO; n];
        apply(&a, &x, &mut ax);
        apply(&ah, &y, &mut ahy);
        let lhs = zdotc(&ax, &y);
        let rhs = zdotc(&x, &ahy);
        assert!(
            (lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
        );
    }

    #[test]
    fn forward_solve_recovers_field() {
        let n = 24;
        let g0 = symmetric_g0(n, 9);
        let o: Vec<C64> = random_vec(n, 10).iter().map(|v| *v * 0.5).collect();
        let phi_true = random_vec(n, 11);
        // phi_inc = A phi_true
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &o, &ws);
        let mut phi_inc = vec![C64::ZERO; n];
        apply(&a, &phi_true, &mut phi_inc);
        let mut phi = vec![C64::ZERO; n];
        let stats = solve_forward(
            &g0,
            &o,
            &phi_inc,
            &mut phi,
            IterConfig {
                tol: 1e-11,
                max_iters: 500,
            },
        );
        assert!(stats.converged, "{stats:?}");
        assert!(rel_diff(&phi, &phi_true) < 1e-9);
    }

    #[test]
    fn zero_object_forward_solution_is_incident_field() {
        // With O = 0 the system is the identity: phi = phi_inc in 0 iterations.
        let n = 16;
        let g0 = symmetric_g0(n, 20);
        let o = vec![C64::ZERO; n];
        let phi_inc = random_vec(n, 21);
        let mut phi = vec![C64::ZERO; n];
        let stats = solve_forward(&g0, &o, &phi_inc, &mut phi, IterConfig::default());
        assert!(stats.converged);
        assert!(rel_diff(&phi, &phi_inc) < 1e-10);
        assert!(stats.iterations <= 1);
    }

    #[test]
    fn g0_adjoint_apply_is_hermitian_transpose() {
        let n = 15;
        let g0 = symmetric_g0(n, 30);
        let x = random_vec(n, 31);
        let mut y = vec![vec![C64::ZERO; n]];
        let Ok(()) = g0_adjoint_apply_block(&g0, &[&x], &mut y, &Workspace::new());
        let gh = g0.adjoint();
        let mut y2 = vec![C64::ZERO; n];
        gh.matvec(&x, &mut y2);
        assert!(rel_diff(&y[0], &y2) < 1e-13);
    }
}

//! Abstract linear operators.
//!
//! Everything the Krylov solvers touch is a [`LinOp`]: the MLFMA engine, the
//! dense reference operators, the scattering system `A = I - G0 diag(O)` and
//! its adjoint, and the Fréchet derivative of the inverse problem.

use ffw_numerics::linalg::Matrix;
use ffw_numerics::C64;

/// A linear operator `y = A x` over complex vectors.
pub trait LinOp: Sync {
    /// Output dimension (rows).
    fn dim_out(&self) -> usize;
    /// Input dimension (columns).
    fn dim_in(&self) -> usize;
    /// Computes `y = A x` (overwrites `y`).
    fn apply(&self, x: &[C64], y: &mut [C64]);
}

impl LinOp for Matrix {
    fn dim_out(&self) -> usize {
        self.rows()
    }
    fn dim_in(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.matvec(x, y);
    }
}

/// A linear operator that can apply itself to a block of `B` right-hand
/// sides in one pass: `ys[b] = A xs[b]` for every column `b`.
///
/// The default implementation loops the single-RHS [`LinOp::apply`] over the
/// columns, which is *bit-identical* to `B` scalar applies — so any operator
/// gets block semantics for free and fused implementations (the MLFMA
/// engine's single-traversal panel path) are a pure optimization. Fused
/// overrides must keep each column's arithmetic independent: the batched
/// Krylov solvers rely on per-column results matching the single-RHS path.
pub trait BlockLinOp: LinOp {
    /// Computes `ys[b] = A xs[b]` for all columns (overwrites `ys`).
    fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        assert_eq!(xs.len(), ys.len(), "block width mismatch");
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(x, y);
        }
    }
}

impl BlockLinOp for Matrix {}

/// The operator seam the BiCGStab kernel and the DBIM loop are written
/// against: this rank's slice of a square operator whose vectors may be
/// partitioned over several ranks.
///
/// It has exactly two implementors. Every [`BlockLinOp`] is the one-rank
/// case — the whole vector is local, nothing can fail
/// (`Error = Infallible`) and [`DistOp::reduce`] has nobody to sum with —
/// and `ffw_dist::DistMlfma` is a sub-tree rank of the distributed `G0`.
/// Operators composed over a `DistOp` (the scattering operators) inherit
/// the error type and the reduction of what they wrap.
pub trait DistOp {
    /// What a failed apply or reduction surfaces (a dead peer, a corrupted
    /// panel); uninhabited for in-process operators.
    type Error;
    /// Length of this rank's slice.
    fn n_local(&self) -> usize;
    /// `ys[b] = (A xs[b])_local` for a panel of columns, column-wise
    /// independent. A single right-hand side is a panel of width 1.
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), Self::Error>;
    /// Sums `vals` elementwise over the ranks that share this operator's
    /// vectors, leaving the identical result on each of them.
    fn reduce(&self, vals: &mut [C64]) -> Result<(), Self::Error>;
}

impl<A: BlockLinOp + ?Sized> DistOp for A {
    type Error = std::convert::Infallible;
    fn n_local(&self) -> usize {
        self.dim_in()
    }
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), Self::Error> {
        self.apply_block(xs_local, ys_local);
        Ok(())
    }
    fn reduce(&self, _vals: &mut [C64]) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The identity operator.
pub struct IdentityOp(pub usize);

impl LinOp for IdentityOp {
    fn dim_out(&self) -> usize {
        self.0
    }
    fn dim_in(&self) -> usize {
        self.0
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        y.copy_from_slice(x);
    }
}

impl BlockLinOp for IdentityOp {}

/// A diagonal operator `y = diag(d) x`.
pub struct DiagonalOp(pub Vec<C64>);

impl LinOp for DiagonalOp {
    fn dim_out(&self) -> usize {
        self.0.len()
    }
    fn dim_in(&self) -> usize {
        self.0.len()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        for ((yi, xi), di) in y.iter_mut().zip(x).zip(&self.0) {
            *yi = *xi * *di;
        }
    }
}

impl BlockLinOp for DiagonalOp {}

/// A closure-backed operator, handy for composing pipelines without new types.
pub struct FnOp<F: Fn(&[C64], &mut [C64]) + Sync> {
    dim_out: usize,
    dim_in: usize,
    f: F,
}

impl<F: Fn(&[C64], &mut [C64]) + Sync> FnOp<F> {
    /// Wraps a closure as an operator with the given dimensions.
    pub fn new(dim_out: usize, dim_in: usize, f: F) -> Self {
        FnOp { dim_out, dim_in, f }
    }
}

impl<F: Fn(&[C64], &mut [C64]) + Sync> LinOp for FnOp<F> {
    fn dim_out(&self) -> usize {
        self.dim_out
    }
    fn dim_in(&self) -> usize {
        self.dim_in
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        (self.f)(x, y);
    }
}

impl<F: Fn(&[C64], &mut [C64]) + Sync> BlockLinOp for FnOp<F> {}

/// Counts applications of an inner operator (used to measure "MLFMA
/// multiplications per forward solution", the paper's Fig. 13 statistic).
pub struct CountingOp<'a, A: LinOp + ?Sized> {
    inner: &'a A,
    count: std::sync::atomic::AtomicUsize,
}

impl<'a, A: LinOp + ?Sized> CountingOp<'a, A> {
    /// Wraps `inner`.
    pub fn new(inner: &'a A) -> Self {
        CountingOp {
            inner,
            count: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of `apply` calls so far.
    pub fn count(&self) -> usize {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<A: LinOp + ?Sized> LinOp for CountingOp<'_, A> {
    fn dim_out(&self) -> usize {
        self.inner.dim_out()
    }
    fn dim_in(&self) -> usize {
        self.inner.dim_in()
    }
    fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.apply(x, y);
    }
}

impl<A: BlockLinOp + ?Sized> BlockLinOp for CountingOp<'_, A> {
    /// A fused block apply counts as one application *per column* so the
    /// "MLFMA multiplications per forward solution" statistic stays
    /// comparable between the batched and single-RHS paths.
    fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        self.count
            .fetch_add(xs.len(), std::sync::atomic::Ordering::Relaxed);
        self.inner.apply_block(xs, ys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::c64;

    #[test]
    fn identity_and_diagonal() {
        let x = vec![c64(1.0, 2.0), c64(-3.0, 0.5)];
        let mut y = vec![C64::ZERO; 2];
        IdentityOp(2).apply(&x, &mut y);
        assert_eq!(x, y);
        let d = DiagonalOp(vec![c64(2.0, 0.0), c64(0.0, 1.0)]);
        d.apply(&x, &mut y);
        assert_eq!(y[0], c64(2.0, 4.0));
        assert_eq!(y[1], c64(-0.5, -3.0));
    }

    #[test]
    fn fn_op_and_counting() {
        let op = FnOp::new(2, 2, |x: &[C64], y: &mut [C64]| {
            y[0] = x[1];
            y[1] = x[0];
        });
        let counted = CountingOp::new(&op);
        let x = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let mut y = vec![C64::ZERO; 2];
        counted.apply(&x, &mut y);
        counted.apply(&x, &mut y);
        assert_eq!(counted.count(), 2);
        assert_eq!(y[0], x[1]);
    }

    #[test]
    fn default_block_apply_matches_column_loop_exactly() {
        let a = Matrix::from_fn(3, 3, |r, c| c64((r * 3 + c) as f64 * 0.3, 0.1 * c as f64));
        let x1 = vec![c64(1.0, 2.0), c64(-0.5, 0.0), c64(0.2, -0.7)];
        let x2 = vec![c64(0.0, 1.0), c64(3.0, -2.0), c64(-1.1, 0.4)];
        let mut ys = vec![vec![C64::ZERO; 3]; 2];
        a.apply_block(&[&x1, &x2], &mut ys);
        let mut y1 = vec![C64::ZERO; 3];
        let mut y2 = vec![C64::ZERO; 3];
        a.apply(&x1, &mut y1);
        a.apply(&x2, &mut y2);
        assert_eq!(ys[0], y1);
        assert_eq!(ys[1], y2);
    }

    #[test]
    fn counting_op_counts_block_columns() {
        let a = Matrix::from_fn(2, 2, |r, c| c64((r + c) as f64, 0.0));
        let counted = CountingOp::new(&a);
        let x1 = vec![c64(1.0, 0.0); 2];
        let x2 = vec![c64(0.0, 1.0); 2];
        let x3 = vec![c64(2.0, 2.0); 2];
        let mut ys = vec![vec![C64::ZERO; 2]; 3];
        counted.apply_block(&[&x1, &x2, &x3], &mut ys);
        assert_eq!(counted.count(), 3, "one column-equivalent per RHS");
    }
}

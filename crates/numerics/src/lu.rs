//! Dense complex LU factorization with partial pivoting.
//!
//! The exact-solve oracle of the tests: the systems it factors have about a
//! thousand unknowns, so a straightforward `O(n^3)` factorization is the
//! right tool.

use crate::complex::C64;
use crate::linalg::Matrix;

/// An LU factorization `P A = L U` of a square complex matrix.
pub struct LuFactors {
    n: usize,
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Vec<C64>,
    /// Row permutation: `perm[i]` = original row index in position `i`.
    perm: Vec<u32>,
    /// Sign-tracking of the permutation (for determinants).
    swaps: usize,
}

/// Error type for singular matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Pivot column at which factorization broke down.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

impl LuFactors {
    /// Factorizes `a` (consumed as a copy). Fails on (numerically) singular
    /// input.
    pub fn new(a: &Matrix) -> Result<Self, SingularMatrix> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut swaps = 0usize;
        for k in 0..n {
            // partial pivot: largest |entry| in column k at or below row k
            let mut best = k;
            let mut best_mag = lu[k * n + k].norm_sqr();
            for r in k + 1..n {
                let m = lu[r * n + k].norm_sqr();
                if m > best_mag {
                    best = r;
                    best_mag = m;
                }
            }
            if best_mag == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if best != k {
                for c in 0..n {
                    lu.swap(k * n + c, best * n + c);
                }
                perm.swap(k, best);
                swaps += 1;
            }
            let pivot = lu[k * n + k];
            let inv_pivot = pivot.inv();
            for r in k + 1..n {
                let factor = lu[r * n + k] * inv_pivot;
                lu[r * n + k] = factor;
                if factor.re != 0.0 || factor.im != 0.0 {
                    for c in k + 1..n {
                        let u = lu[k * n + c];
                        lu[r * n + c] -= factor * u;
                    }
                }
            }
        }
        Ok(LuFactors { n, lu, perm, swaps })
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    pub fn solve_in_place(&self, b: &mut [C64]) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // apply permutation: x = P b
        let mut x = vec![C64::ZERO; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[i] = b[p as usize];
        }
        // forward substitution (L unit lower)
        for r in 1..n {
            let mut acc = x[r];
            for (&l, &xc) in self.lu[r * n..r * n + r].iter().zip(x.iter()) {
                acc -= l * xc;
            }
            x[r] = acc;
        }
        // back substitution (U upper)
        for r in (0..n).rev() {
            let mut acc = x[r];
            for (&l, &xc) in self.lu[r * n + r + 1..r * n + n]
                .iter()
                .zip(x[r + 1..].iter())
            {
                acc -= l * xc;
            }
            x[r] = acc / self.lu[r * n + r];
        }
        b.copy_from_slice(&x);
    }

    /// Solves `A x = b` out of place.
    pub fn solve(&self, b: &[C64]) -> Vec<C64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Determinant (product of U diagonal, sign-corrected).
    pub fn det(&self) -> C64 {
        let n = self.n;
        let mut d = if self.swaps.is_multiple_of(2) {
            C64::ONE
        } else {
            -C64::ONE
        };
        for k in 0..n {
            d *= self.lu[k * n + k];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::vecops::rel_diff;

    fn random_mat(n: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |_, _| c64(next(), next()))
    }

    #[test]
    fn solves_random_systems() {
        for seed in 0..5u64 {
            let n = 17;
            let a = random_mat(n, seed);
            let x_true: Vec<C64> = (0..n).map(|i| c64(i as f64, -0.5 * i as f64)).collect();
            let mut b = vec![C64::ZERO; n];
            a.matvec(&x_true, &mut b);
            let lu = LuFactors::new(&a).expect("nonsingular");
            let x = lu.solve(&b);
            assert!(rel_diff(&x, &x_true) < 1e-10, "seed {seed}");
        }
    }

    #[test]
    fn identity_solves_trivially() {
        let n = 6;
        let a = Matrix::from_fn(n, n, |r, c| if r == c { C64::ONE } else { C64::ZERO });
        let lu = LuFactors::new(&a).expect("identity");
        let b: Vec<C64> = (0..n).map(|i| c64(1.0 + i as f64, 2.0)).collect();
        assert!(rel_diff(&lu.solve(&b), &b) < 1e-15);
        assert!((lu.det() - C64::ONE).abs() < 1e-15);
    }

    #[test]
    fn needs_pivoting() {
        // zero on the leading diagonal forces a row swap
        let a = Matrix::from_fn(2, 2, |r, c| match (r, c) {
            (0, 0) => C64::ZERO,
            (0, 1) => c64(1.0, 0.0),
            (1, 0) => c64(2.0, 0.0),
            _ => c64(3.0, 0.0),
        });
        let lu = LuFactors::new(&a).expect("pivot fixes it");
        let x = lu.solve(&[c64(1.0, 0.0), c64(2.0, 0.0)]);
        // 0 x0 + 1 x1 = 1; 2 x0 + 3 x1 = 2 -> x1 = 1, x0 = -1/2
        assert!((x[1] - c64(1.0, 0.0)).abs() < 1e-14);
        assert!((x[0] - c64(-0.5, 0.0)).abs() < 1e-14);
        // det = -(2) (row swap sign)
        assert!((lu.det() - c64(-2.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_fn(3, 3, |r, _| c64(r as f64, 0.0)); // rank 1
        assert!(LuFactors::new(&a).is_err());
    }

    #[test]
    fn determinant_of_diagonal() {
        let a = Matrix::from_fn(3, 3, |r, c| {
            if r == c {
                c64((r + 1) as f64, 0.0)
            } else {
                C64::ZERO
            }
        });
        let lu = LuFactors::new(&a).expect("diag");
        assert!((lu.det() - c64(6.0, 0.0)).abs() < 1e-13);
    }
}

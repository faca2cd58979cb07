//! Dense and band-structured complex matrices.
//!
//! The MLFMA realizes its operators as matrices (paper Table I): multipole /
//! local expansions and near-field interactions are *dense*, interpolation /
//! anterpolation are *band-diagonal* with real weights, and shifts /
//! translations are diagonal (stored as split re/im planes by the MLFMA crate).

use crate::complex::C64;

/// Row-major dense complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from an element function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline(always)]
    pub fn at(&self, r: usize, c: usize) -> C64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline(always)]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[C64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying row-major storage.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc = a.mul_add(*b, acc);
            }
            *yr = acc;
        }
    }

    /// `y += A x`.
    pub fn matvec_acc(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc = a.mul_add(*b, acc);
            }
            *yr += acc;
        }
    }

    /// `ys[b] += A xs[b]` for a panel of inputs, with the output panel
    /// column-blocked: column `b` occupies `ys[b * rows .. (b+1) * rows]`.
    ///
    /// The inputs are first packed into split re/im planes laid out
    /// column-adjacent (`plane[k * width + b]`), so the per-row sweep updates
    /// `W` independent accumulator lanes with contiguous loads — plain
    /// elementwise `f64` arithmetic the compiler vectorizes across the panel,
    /// something the one-column `matvec_acc` chain can never expose. Per
    /// column the expression evaluated each step is exactly
    /// [`C64::mul_add`]'s (`a.re*x.re - a.im*x.im + acc.re`, same
    /// association), the `k` order is the same, and the final single add into
    /// `y` is the same — so every column of the panel is bit-identical to
    /// its own `matvec_acc`.
    pub fn matvec_acc_panel(&self, xs: &[&[C64]], ys: &mut [C64]) {
        let width = xs.len();
        assert_eq!(ys.len(), self.rows * width);
        for x in xs {
            assert_eq!(x.len(), self.cols);
        }
        // Pack: O(cols * width) against the O(rows * cols * width) sweep.
        let mut xre = vec![0.0f64; self.cols * width];
        let mut xim = vec![0.0f64; self.cols * width];
        for (b, x) in xs.iter().enumerate() {
            for (k, v) in x.iter().enumerate() {
                xre[k * width + b] = v.re;
                xim[k * width + b] = v.im;
            }
        }
        // The AVX2 path is compiled out under Miri: the interpreter has no
        // cpuid, and the scalar sweep is the bit-identical reference anyway.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { self.panel_sweep_avx2(&xre, &xim, width, ys) };
            return;
        }
        self.panel_sweep_scalar(&xre, &xim, width, 0, ys);
    }

    /// Portable lane sweep of [`Self::matvec_acc_panel`], from column `col`
    /// to the end of the panel.
    fn panel_sweep_scalar(
        &self,
        xre: &[f64],
        xim: &[f64],
        width: usize,
        col: usize,
        ys: &mut [C64],
    ) {
        let rows = self.rows;
        for b in col..width {
            for r in 0..rows {
                let row = self.row(r);
                let mut acc_re = 0.0f64;
                let mut acc_im = 0.0f64;
                for (k, a) in row.iter().enumerate() {
                    let vr = xre[k * width + b];
                    let vi = xim[k * width + b];
                    acc_re += a.re * vr - a.im * vi;
                    acc_im += a.re * vi + a.im * vr;
                }
                let y = &mut ys[b * rows + r];
                y.re += acc_re;
                y.im += acc_im;
            }
        }
    }

    /// AVX2 lane sweep: 8 columns per pass (four 4-wide accumulator chains
    /// per output row — enough independent chains to hide the add latency
    /// that serializes the one-column path), then a 4-wide pass, then scalar
    /// remainder lanes. Every vector op is an elementwise IEEE mul/sub/add in
    /// the exact association of [`C64::mul_add`] — no fma contraction — so
    /// each lane is bit-identical to the scalar sweep.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    // SAFETY: caller must ensure AVX2 is available (runtime-detected at the
    // single call site); all pointer arithmetic is bounds-justified below.
    unsafe fn panel_sweep_avx2(&self, xre: &[f64], xim: &[f64], width: usize, ys: &mut [C64]) {
        use std::arch::x86_64::*;
        let rows = self.rows;
        let mut col = 0;
        // SAFETY (whole body): lane loads below read `xre/xim[k*width+col ..
        // +4/+8]` with `k < cols`, in bounds of the `cols * width` planes;
        // `ys` stores index `(col+j) * rows + r` with `col+j < width`,
        // `r < rows`, in bounds of the `rows * width` panel.
        unsafe {
            while col + 8 <= width {
                for r in 0..rows {
                    let row = self.row(r);
                    let mut re0 = _mm256_setzero_pd();
                    let mut im0 = _mm256_setzero_pd();
                    let mut re1 = _mm256_setzero_pd();
                    let mut im1 = _mm256_setzero_pd();
                    for (k, a) in row.iter().enumerate() {
                        let base = k * width + col;
                        let are = _mm256_set1_pd(a.re);
                        let aim = _mm256_set1_pd(a.im);
                        let vr0 = _mm256_loadu_pd(xre.as_ptr().add(base));
                        let vi0 = _mm256_loadu_pd(xim.as_ptr().add(base));
                        let vr1 = _mm256_loadu_pd(xre.as_ptr().add(base + 4));
                        let vi1 = _mm256_loadu_pd(xim.as_ptr().add(base + 4));
                        re0 = _mm256_add_pd(
                            _mm256_sub_pd(_mm256_mul_pd(are, vr0), _mm256_mul_pd(aim, vi0)),
                            re0,
                        );
                        im0 = _mm256_add_pd(
                            _mm256_add_pd(_mm256_mul_pd(are, vi0), _mm256_mul_pd(aim, vr0)),
                            im0,
                        );
                        re1 = _mm256_add_pd(
                            _mm256_sub_pd(_mm256_mul_pd(are, vr1), _mm256_mul_pd(aim, vi1)),
                            re1,
                        );
                        im1 = _mm256_add_pd(
                            _mm256_add_pd(_mm256_mul_pd(are, vi1), _mm256_mul_pd(aim, vr1)),
                            im1,
                        );
                    }
                    let mut lre = [0.0f64; 8];
                    let mut lim = [0.0f64; 8];
                    _mm256_storeu_pd(lre.as_mut_ptr(), re0);
                    _mm256_storeu_pd(lre.as_mut_ptr().add(4), re1);
                    _mm256_storeu_pd(lim.as_mut_ptr(), im0);
                    _mm256_storeu_pd(lim.as_mut_ptr().add(4), im1);
                    for j in 0..8 {
                        let y = &mut ys[(col + j) * rows + r];
                        y.re += lre[j];
                        y.im += lim[j];
                    }
                }
                col += 8;
            }
            while col + 4 <= width {
                for r in 0..rows {
                    let row = self.row(r);
                    let mut re0 = _mm256_setzero_pd();
                    let mut im0 = _mm256_setzero_pd();
                    for (k, a) in row.iter().enumerate() {
                        let base = k * width + col;
                        let are = _mm256_set1_pd(a.re);
                        let aim = _mm256_set1_pd(a.im);
                        let vr0 = _mm256_loadu_pd(xre.as_ptr().add(base));
                        let vi0 = _mm256_loadu_pd(xim.as_ptr().add(base));
                        re0 = _mm256_add_pd(
                            _mm256_sub_pd(_mm256_mul_pd(are, vr0), _mm256_mul_pd(aim, vi0)),
                            re0,
                        );
                        im0 = _mm256_add_pd(
                            _mm256_add_pd(_mm256_mul_pd(are, vi0), _mm256_mul_pd(aim, vr0)),
                            im0,
                        );
                    }
                    let mut lre = [0.0f64; 4];
                    let mut lim = [0.0f64; 4];
                    _mm256_storeu_pd(lre.as_mut_ptr(), re0);
                    _mm256_storeu_pd(lim.as_mut_ptr(), im0);
                    for j in 0..4 {
                        let y = &mut ys[(col + j) * rows + r];
                        y.re += lre[j];
                        y.im += lim[j];
                    }
                }
                col += 4;
            }
        }
        self.panel_sweep_scalar(xre, xim, width, col, ys);
    }

    /// `y += A^T x` (plain transpose, no conjugation — `G0` is complex
    /// symmetric so its transpose equals itself).
    pub fn matvec_transpose_acc(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            for (c, a) in row.iter().enumerate() {
                y[c] = a.mul_add(xr, y[c]);
            }
        }
    }

    /// `y += A^H x` (conjugate transpose).
    pub fn matvec_adjoint_acc(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            for (c, a) in row.iter().enumerate() {
                y[c] = a.conj().mul_add(xr, y[c]);
            }
        }
    }

    /// `C += A * B` where `B` and `C` are dense column-blocks given as
    /// row-major slices with `b_cols` columns. This is the matrix-matrix
    /// formulation the paper uses for multipole/local expansions (better data
    /// reuse than repeated matvecs).
    pub fn gemm_acc(&self, b: &[C64], b_cols: usize, c: &mut [C64]) {
        assert_eq!(b.len(), self.cols * b_cols);
        assert_eq!(c.len(), self.rows * b_cols);
        // i-k-j loop order: streams through B rows, accumulates into C rows.
        for i in 0..self.rows {
            let arow = self.row(i);
            let crow = &mut c[i * b_cols..(i + 1) * b_cols];
            for (k, &aik) in arow.iter().enumerate() {
                if aik.re == 0.0 && aik.im == 0.0 {
                    continue;
                }
                let brow = &b[k * b_cols..(k + 1) * b_cols];
                for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                    *cj = aik.mul_add(*bj, *cj);
                }
            }
        }
    }

    /// Dense `C = A * B` returning a new matrix.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.gemm_acc(&other.data, other.cols, &mut out.data);
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.at(c, r).conj())
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }
}

/// Periodic band matrix with real weights: row `i` has `band` contiguous
/// nonzeros starting at column `start[i]`, wrapping modulo `cols`.
///
/// This is exactly the structure of the MLFMA interpolation (child sampling ->
/// parent sampling) and anterpolation operators: local Lagrange interpolation
/// on the unit circle touches only `band` neighbouring source samples.
#[derive(Clone, Debug)]
pub struct PeriodicBandMatrix {
    rows: usize,
    cols: usize,
    band: usize,
    start: Vec<u32>,
    weights: Vec<f64>, // rows * band, row-major
}

impl PeriodicBandMatrix {
    /// Builds from per-row starting columns and weights.
    pub fn new(rows: usize, cols: usize, band: usize, start: Vec<u32>, weights: Vec<f64>) -> Self {
        assert_eq!(start.len(), rows);
        assert_eq!(weights.len(), rows * band);
        PeriodicBandMatrix {
            rows,
            cols,
            band,
            start,
            weights,
        }
    }

    /// Number of rows (output samples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input samples).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bandwidth (nonzeros per row).
    pub fn band(&self) -> usize {
        self.band
    }

    /// Number of stored nonzero coefficients.
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// First column of every row's band.
    pub fn start(&self) -> &[u32] {
        &self.start
    }

    /// The band weights, `rows * band`, row-major.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `y = B x` (overwrites `y`).
    pub fn apply(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let s = self.start[i] as usize;
            let w = &self.weights[i * self.band..(i + 1) * self.band];
            let mut acc = C64::ZERO;
            if s + self.band <= self.cols {
                for (wj, xj) in w.iter().zip(&x[s..s + self.band]) {
                    acc += *xj * *wj;
                }
            } else {
                for (j, wj) in w.iter().enumerate() {
                    acc += x[(s + j) % self.cols] * *wj;
                }
            }
            *yi = acc;
        }
    }

    /// `y += alpha * B^T x`: the (scaled) transpose application used for
    /// anterpolation, `anterp = (Q_child / Q_parent) * interp^T`.
    pub fn apply_transpose_scaled(&self, x: &[C64], alpha: f64, y: &mut [C64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        for (i, &xi) in x.iter().enumerate() {
            let s = self.start[i] as usize;
            let w = &self.weights[i * self.band..(i + 1) * self.band];
            let v = xi * alpha;
            if s + self.band <= self.cols {
                for (wj, yj) in w.iter().zip(&mut y[s..s + self.band]) {
                    *yj += v * *wj;
                }
            } else {
                for (j, wj) in w.iter().enumerate() {
                    y[(s + j) % self.cols] += v * *wj;
                }
            }
        }
    }

    /// Densifies for testing.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.band {
                let c = (self.start[i] as usize + j) % self.cols;
                *m.at_mut(i, c) += C64::from_real(self.weights[i * self.band + j]);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(rows, cols, |_, _| c64(next(), next()))
    }

    fn vecc(n: usize, seed: u64) -> Vec<C64> {
        let m = mat(1, n, seed);
        m.as_slice().to_vec()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matvec_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| if r == c { C64::ONE } else { C64::ZERO });
        let x = vecc(4, 3);
        let mut y = vec![C64::ZERO; 4];
        a.matvec(&x, &mut y);
        assert!(max_err(&x, &y) < 1e-15);
    }

    #[test]
    fn gemm_matches_repeated_matvec() {
        let a = mat(7, 5, 1);
        let b = mat(5, 3, 2);
        let c = a.matmul(&b);
        for j in 0..3 {
            let col: Vec<C64> = (0..5).map(|k| b.at(k, j)).collect();
            let mut y = vec![C64::ZERO; 7];
            a.matvec(&col, &mut y);
            for (i, &yi) in y.iter().enumerate() {
                assert!((c.at(i, j) - yi).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn panel_matvec_is_bit_identical_per_column() {
        // Every panel width up to 9 exercises all four column-group kernels
        // (4+4+1, 4+3, ...). Each column must match its own matvec_acc bit
        // for bit — the engine's fused near-field path relies on this.
        let a = mat(13, 11, 31);
        for width in 1..=9usize {
            let xs: Vec<Vec<C64>> = (0..width).map(|b| vecc(11, 40 + b as u64)).collect();
            let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
            // seed the outputs with nonzero values to check the += semantics
            let mut panel = vecc(13 * width, 99);
            let singles: Vec<Vec<C64>> = (0..width)
                .map(|b| {
                    let mut y = panel[b * 13..(b + 1) * 13].to_vec();
                    a.matvec_acc(&xs[b], &mut y);
                    y
                })
                .collect();
            a.matvec_acc_panel(&refs, &mut panel);
            for (b, single) in singles.iter().enumerate() {
                assert_eq!(
                    &panel[b * 13..(b + 1) * 13],
                    single.as_slice(),
                    "width {width} column {b} drifted"
                );
            }
        }
    }

    #[test]
    fn adjoint_inner_product_identity() {
        // <A x, y> = <x, A^H y>
        let a = mat(6, 4, 5);
        let x = vecc(4, 7);
        let y = vecc(6, 9);
        let mut ax = vec![C64::ZERO; 6];
        a.matvec(&x, &mut ax);
        let mut ahy = vec![C64::ZERO; 4];
        a.matvec_adjoint_acc(&y, &mut ahy);
        let lhs: C64 = ax.iter().zip(&y).map(|(u, v)| u.conj() * *v).sum();
        let rhs: C64 = x.iter().zip(&ahy).map(|(u, v)| u.conj() * *v).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn transpose_matches_dense() {
        let a = mat(5, 3, 11);
        let x = vecc(5, 13);
        let mut y = vec![C64::ZERO; 3];
        a.matvec_transpose_acc(&x, &mut y);
        let at = Matrix::from_fn(3, 5, |r, c| a.at(c, r));
        let mut y2 = vec![C64::ZERO; 3];
        at.matvec(&x, &mut y2);
        assert!(max_err(&y, &y2) < 1e-13);
    }

    #[test]
    fn band_matrix_matches_dense() {
        // 7x5 periodic band with band=3
        let rows = 7;
        let cols = 5;
        let band = 3;
        let start: Vec<u32> = (0..rows as u32).map(|i| (i * 2) % cols as u32).collect();
        let weights: Vec<f64> = (0..rows * band).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = PeriodicBandMatrix::new(rows, cols, band, start, weights);
        let x = vecc(cols, 21);
        let mut y = vec![C64::ZERO; rows];
        b.apply(&x, &mut y);
        let mut y2 = vec![C64::ZERO; rows];
        b.to_dense().matvec(&x, &mut y2);
        assert!(max_err(&y, &y2) < 1e-13);

        // transpose
        let z = vecc(rows, 23);
        let mut t = vec![C64::ZERO; cols];
        b.apply_transpose_scaled(&z, 0.7, &mut t);
        let dense_t = b.to_dense();
        let mut t2 = vec![C64::ZERO; cols];
        dense_t.matvec_transpose_acc(&z, &mut t2);
        for v in t2.iter_mut() {
            *v = v.scale(0.7);
        }
        assert!(max_err(&t, &t2) < 1e-13);
    }

    #[test]
    fn band_wraparound() {
        // start so the band wraps past the end
        let b = PeriodicBandMatrix::new(2, 4, 3, vec![3, 2], vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5]);
        let x: Vec<C64> = (0..4).map(|i| C64::from_real(i as f64 + 1.0)).collect();
        let mut y = vec![C64::ZERO; 2];
        b.apply(&x, &mut y);
        // row 0: cols 3,0,1 -> 1*4 + 2*1 + 3*2 = 12
        assert!((y[0].re - 12.0).abs() < 1e-14);
        // row 1: cols 2,3,0 -> 0.5*(3+4+1) = 4
        assert!((y[1].re - 4.0).abs() < 1e-14);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_fn(2, 2, |r, c| c64((r * 2 + c) as f64, 0.0));
        // elements 0,1,2,3 -> sqrt(0+1+4+9)
        assert!((a.norm_fro() - 14.0f64.sqrt()).abs() < 1e-14);
    }
}

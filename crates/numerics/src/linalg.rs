//! Dense and band-structured complex matrices.
//!
//! The MLFMA realizes its operators as matrices (paper Table I): multipole /
//! local expansions and near-field interactions are *dense*, interpolation /
//! anterpolation are *band-diagonal* with real weights, and shifts /
//! translations are diagonal (stored as split re/im planes by the MLFMA crate).
//!
//! The receiver products of the inverse solver run through one pair of
//! panel kernels over an operator given by its rows: [`rows_panel`]
//! (`K w_k`) and [`rows_adjoint_panel`] (`K^H b_k`), for a whole panel of
//! sources in one pass over the rows. Both run through [`crate::dispatch!`]:
//! on x86-64 with AVX2 and FMA as an instance of the same safe body
//! recompiled for both (the body has no multiply-add to fuse, and Rust never
//! contracts one, so the instance answers bit for bit), and as the portable
//! body anywhere else, Miri included.

use crate::complex::{c64, C64};
use std::ops::Range;

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
    /// The rows of `A` through [`rows_panel`]: every column of the panel is
    /// bit-identical to its own `matvec_acc`.
    pub fn matvec_acc_panel(&self, xs: &[&[C64]], ys: &mut [C64]) {
        assert_eq!(ys.len(), self.rows * xs.len());
        assert!(xs.iter().all(|x| x.len() == self.cols));
        let rows: Vec<&[C64]> = (0..self.rows).map(|r| self.row(r)).collect();
        let mut sums = vec![C64::ZERO; ys.len()];
        let source =
            |b: usize, range: Range<usize>, w: &mut [C64]| w.copy_from_slice(&xs[b][range]);
        rows_panel(&rows, xs.len(), source, &mut sums);
        for (y, s) in ys.iter_mut().zip(sums) {
            *y += s;
        }
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

/// Pixels per tile of [`rows_panel`] and [`rows_adjoint_panel`]: a tile of
/// every row (128 KiB at 32 rows) stays in L2 while the lane groups of the
/// panel pass over it.
const TILE: usize = 256;

/// Sources per lane group of the panel kernels, held as split re/im planes:
/// one lane per source, two AVX2 registers per plane.
const LANES: usize = 8;

/// `out[k * R + r] = sum_n rows[r][n] w_k[n]` for a panel of `count`
/// sources: the `R x n` operator `K` given by its rows, in one pass over them.
///
/// `source(k, range, w)` writes `w_k[range]` into `w`, one tile of pixels at
/// a time in ascending order: no source is formed whole. Eight sources ride
/// in lanes and two rows share each pass over a tile. Every `(k, r)` sum is
/// the chain of [`C64::mul_add`]s over ascending pixels from zero that
/// [`Matrix::matvec`] runs, unfused: bit-identical to it at every width.
pub fn rows_panel<F>(rows: &[&[C64]], count: usize, source: F, out: &mut [C64])
where
    F: FnMut(usize, Range<usize>, &mut [C64]),
{
    dispatch!(rows_panel_body(
        rows: &[&[C64]],
        count: usize,
        source: impl FnMut(usize, Range<usize>, &mut [C64]),
        out: &mut [C64],
    ));
}

#[inline(always)]
fn rows_panel_body<F>(rows: &[&[C64]], count: usize, mut source: F, out: &mut [C64])
where
    F: FnMut(usize, Range<usize>, &mut [C64]),
{
    let n_rows = rows.len();
    assert_eq!(out.len(), count * n_rows);
    let n = rows.first().map_or(0, |row| row.len());
    assert!(rows.iter().all(|row| row.len() == n));
    // The running sums: lane group `g`, row `r`, lane `j` at
    // `(g * R + r) * LANES + j`.
    let groups = count.div_ceil(LANES);
    let mut sum_re = vec![0.0f64; groups * n_rows * LANES];
    let mut sum_im = vec![0.0f64; groups * n_rows * LANES];
    // One tile of one lane group's sources: pixel `i`, lane `j` at
    // `i * LANES + j`. Lanes past the panel's end carry stale values whose
    // sums are never read.
    let tile_len = n.min(TILE);
    let mut w = vec![C64::ZERO; tile_len];
    let mut w_re = vec![0.0f64; tile_len * LANES];
    let mut w_im = vec![0.0f64; tile_len * LANES];
    for p0 in (0..n).step_by(TILE) {
        let tile = p0..n.min(p0 + TILE);
        let len = tile.len();
        for g in 0..groups {
            for (j, k) in (g * LANES..count.min((g + 1) * LANES)).enumerate() {
                source(k, tile.clone(), &mut w[..len]);
                for (i, v) in w[..len].iter().enumerate() {
                    w_re[i * LANES + j] = v.re;
                    w_im[i * LANES + j] = v.im;
                }
            }
            let planes = (&w_re[..len * LANES], &w_im[..len * LANES]);
            let sums = g * n_rows * LANES..(g + 1) * n_rows * LANES;
            let pairs = sum_re[sums.clone()].chunks_mut(2 * LANES);
            let pairs = pairs.zip(sum_im[sums].chunks_mut(2 * LANES));
            for ((s_re, s_im), block) in pairs.zip(rows.chunks(2)) {
                if let [g0, g1] = block {
                    let block = [&g0[tile.clone()], &g1[tile.clone()]];
                    forward_rows(block, planes, s_re, s_im);
                } else {
                    forward_rows([&block[0][tile.clone()]], planes, s_re, s_im);
                }
            }
        }
    }
    for (k, out) in out.chunks_mut(n_rows.max(1)).take(count).enumerate() {
        let (g, j) = (k / LANES, k % LANES);
        for (r, o) in out.iter_mut().enumerate() {
            let at = (g * n_rows + r) * LANES + j;
            *o = c64(sum_re[at], sum_im[at]);
        }
    }
}

/// The sums of `ROWS` rows over one tile, every lane of the group:
/// `s_re` / `s_im` hold the rows' running sums, `LANES` apiece, on entry and
/// on exit. Each step is [`C64::mul_add`]'s expression (`a += p` rounds as
/// `p + a`: IEEE addition commutes).
#[inline(always)]
fn forward_rows<const ROWS: usize>(
    g: [&[C64]; ROWS],
    (w_re, w_im): (&[f64], &[f64]),
    s_re: &mut [f64],
    s_im: &mut [f64],
) {
    let mut acc_re = [[0.0f64; LANES]; ROWS];
    let mut acc_im = [[0.0f64; LANES]; ROWS];
    for b in 0..ROWS {
        acc_re[b].copy_from_slice(&s_re[b * LANES..(b + 1) * LANES]);
        acc_im[b].copy_from_slice(&s_im[b * LANES..(b + 1) * LANES]);
    }
    let planes = w_re.chunks_exact(LANES).zip(w_im.chunks_exact(LANES));
    for (i, (vr, vi)) in planes.enumerate() {
        for b in 0..ROWS {
            let x = g[b][i];
            for j in 0..LANES {
                acc_re[b][j] += x.re * vr[j] - x.im * vi[j];
                acc_im[b][j] += x.re * vi[j] + x.im * vr[j];
            }
        }
    }
    for b in 0..ROWS {
        s_re[b * LANES..(b + 1) * LANES].copy_from_slice(&acc_re[b]);
        s_im[b * LANES..(b + 1) * LANES].copy_from_slice(&acc_im[b]);
    }
}

/// `s_k = K^H b_k` for a panel of vectors `bs`, `R` long each, with `K` the
/// `R x n` operator of [`rows_panel`], in one pass over its rows.
///
/// `sink(k, range, s)` receives `s_k[range]`, one tile of pixels at a time
/// in ascending order and, within a tile, in ascending `k`: a sum over the
/// panel in the sink adds in the order a loop over whole `s_k` would. Eight
/// vectors ride in lanes. Each pixel's sum is the [`C64::mul_add`] chain of
/// the conjugated row entries over ascending receivers from zero that
/// [`Matrix::matvec_adjoint_acc`] runs into zeros: bit-identical to it.
pub fn rows_adjoint_panel<S>(rows: &[&[C64]], n: usize, bs: &[&[C64]], sink: S)
where
    S: FnMut(usize, Range<usize>, &[C64]),
{
    dispatch!(rows_adjoint_panel_body(
        rows: &[&[C64]],
        n: usize,
        bs: &[&[C64]],
        sink: impl FnMut(usize, Range<usize>, &[C64]),
    ));
}

#[inline(always)]
fn rows_adjoint_panel_body<S>(rows: &[&[C64]], n: usize, bs: &[&[C64]], mut sink: S)
where
    S: FnMut(usize, Range<usize>, &[C64]),
{
    let n_rows = rows.len();
    assert!(rows.iter().all(|row| row.len() == n));
    assert!(bs.iter().all(|b| b.len() == n_rows));
    // The panel as split planes: lane group `g`, receiver `r`, lane `j` at
    // `(g * R + r) * LANES + j`; lanes past the panel's end are zero.
    let groups = bs.len().div_ceil(LANES);
    let mut b_re = vec![0.0f64; groups * n_rows * LANES];
    let mut b_im = vec![0.0f64; groups * n_rows * LANES];
    for (k, b) in bs.iter().enumerate() {
        let (g, j) = (k / LANES, k % LANES);
        for (r, v) in b.iter().enumerate() {
            b_re[(g * n_rows + r) * LANES + j] = v.re;
            b_im[(g * n_rows + r) * LANES + j] = v.im;
        }
    }
    // One tile of one lane group's sums: split planes, pixel `i`, lane `j`
    // at `i * LANES + j`, then lane `j`'s as one vector for the sink.
    let tile_len = n.min(TILE);
    let mut t_re = vec![0.0f64; tile_len * LANES];
    let mut t_im = vec![0.0f64; tile_len * LANES];
    let mut s = vec![C64::ZERO; tile_len];
    for p0 in (0..n).step_by(TILE) {
        let tile = p0..n.min(p0 + TILE);
        let len = tile.len();
        for g in 0..groups {
            let planes = g * n_rows * LANES..(g + 1) * n_rows * LANES;
            let planes = (&b_re[planes.clone()], &b_im[planes]);
            let sums = t_re.chunks_mut(2 * LANES).zip(t_im.chunks_mut(2 * LANES));
            for ((s_re, s_im), i) in sums.zip((0..len).step_by(2)) {
                if i + 2 <= len {
                    adjoint_pixels::<2>(rows, p0 + i, planes, s_re, s_im);
                } else {
                    adjoint_pixels::<1>(rows, p0 + i, planes, s_re, s_im);
                }
            }
            for (j, k) in (g * LANES..bs.len().min((g + 1) * LANES)).enumerate() {
                for (i, v) in s[..len].iter_mut().enumerate() {
                    *v = c64(t_re[i * LANES + j], t_im[i * LANES + j]);
                }
                sink(k, tile.clone(), &s[..len]);
            }
        }
    }
}

/// The sums of `PIX` pixels from `p`, every lane of the group, written to
/// `s_re` / `s_im` at `q * LANES + j` for pixel `p + q` and lane `j`. Each
/// step is [`C64::mul_add`]'s expression of the conjugated row entry.
#[inline(always)]
fn adjoint_pixels<const PIX: usize>(
    rows: &[&[C64]],
    p: usize,
    (b_re, b_im): (&[f64], &[f64]),
    s_re: &mut [f64],
    s_im: &mut [f64],
) {
    let mut acc_re = [[0.0f64; LANES]; PIX];
    let mut acc_im = [[0.0f64; LANES]; PIX];
    let planes = b_re.chunks_exact(LANES).zip(b_im.chunks_exact(LANES));
    for (row, (vr, vi)) in rows.iter().zip(planes) {
        for q in 0..PIX {
            let x = row[p + q].conj();
            for j in 0..LANES {
                acc_re[q][j] += x.re * vr[j] - x.im * vi[j];
                acc_im[q][j] += x.re * vi[j] + x.im * vr[j];
            }
        }
    }
    for q in 0..PIX {
        s_re[q * LANES..(q + 1) * LANES].copy_from_slice(&acc_re[q]);
        s_im[q * LANES..(q + 1) * LANES].copy_from_slice(&acc_im[q]);
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

    /// Both panel kernels against `matvec` / `matvec_adjoint_acc` (the
    /// `mul_add` chains) at every shape they branch on: widths into a second
    /// lane group and its tail, odd row blocks, tile tails. Miri runs the
    /// portable bodies on a corner of them.
    #[test]
    fn panel_kernels_are_the_mul_add_chain_of_every_sum() {
        let (widths, row_counts, lens) = if cfg!(miri) {
            (vec![1, 8, 9], vec![1, 3], vec![1, 257])
        } else {
            (
                (1..=17).collect(),
                vec![1, 2, 3, 5, 32],
                vec![1, 255, 256, 257, 1000],
            )
        };
        for (&n_rows, &n) in row_counts
            .iter()
            .flat_map(|r| lens.iter().map(move |n| (r, n)))
        {
            let k = mat(n_rows, n, (n_rows * n) as u64);
            let rows: Vec<&[C64]> = (0..n_rows).map(|r| k.row(r)).collect();
            for &count in &widths {
                let ws: Vec<Vec<C64>> = (0..count).map(|b| vecc(n, 7 + b as u64)).collect();
                let mut out = vec![C64::ONE; count * n_rows];
                rows_panel(
                    &rows,
                    count,
                    |b, px, w| w.copy_from_slice(&ws[b][px]),
                    &mut out,
                );
                let bs: Vec<&[C64]> = out.chunks(n_rows).collect();
                let mut ss = vec![vec![C64::ONE; n]; count];
                rows_adjoint_panel(&rows, n, &bs, |b, px, s| ss[b][px].copy_from_slice(s));
                for (b, (w, s)) in ws.iter().zip(&ss).enumerate() {
                    let (mut y, mut z) = (vec![C64::ZERO; n_rows], vec![C64::ZERO; n]);
                    k.matvec(w, &mut y);
                    k.matvec_adjoint_acc(bs[b], &mut z);
                    assert_eq!((bs[b], s), (&y[..], &z), "{n_rows}x{n}, {count} wide");
                }
            }
        }
    }

    #[test]
    fn rows_adjoint_panel_sinks_ascending_tiles_then_ascending_sources() {
        let k = mat(3, 600, 5);
        let rows: Vec<&[C64]> = (0..3).map(|r| k.row(r)).collect();
        let bs = vec![&k.row(0)[..3]; 11];
        let mut calls = Vec::new();
        rows_adjoint_panel(&rows, 600, &bs, |b, px, _| calls.push((px.start, b)));
        let tiles = [0, 256, 512].into_iter();
        let expected: Vec<_> = tiles.flat_map(|p| (0..11).map(move |b| (p, b))).collect();
        assert_eq!(calls, expected);
    }

    #[test]
    fn the_dispatched_panel_kernels_answer_as_the_portable_bodies() {
        let (n, n_rows, count) = if cfg!(miri) {
            (300, 3, 9)
        } else {
            (1000, 5, 17)
        };
        let k = mat(n_rows, n, 3);
        let rows: Vec<&[C64]> = (0..n_rows).map(|r| k.row(r)).collect();
        let ws: Vec<Vec<C64>> = (0..count).map(|b| vecc(n, 20 + b as u64)).collect();
        let source = |b: usize, px: Range<usize>, w: &mut [C64]| w.copy_from_slice(&ws[b][px]);
        let mut outs = [
            vec![C64::ZERO; count * n_rows],
            vec![C64::ONE; count * n_rows],
        ];
        rows_panel(&rows, count, source, &mut outs[0]);
        rows_panel_body(&rows, count, source, &mut outs[1]);
        assert_eq!(outs[0], outs[1]);
        let bs: Vec<&[C64]> = ws.iter().map(|w| &w[..n_rows]).collect();
        let mut sinks = [vec![], vec![]];
        rows_adjoint_panel(&rows, n, &bs, |b, px, s| sinks[0].push((b, px, s.to_vec())));
        rows_adjoint_panel_body(&rows, n, &bs, |b, px, s| sinks[1].push((b, px, s.to_vec())));
        assert_eq!(sinks[0], sinks[1]);
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

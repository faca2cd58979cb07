//! The near field as nine pixel-level diagonal translations.
//!
//! On the regular grid every near-field block (one per neighbour offset,
//! Table I) is block-Toeplitz: the interaction of observer pixel `(mx, my)`
//! with source pixel `(nx, ny)` of the leaf at offset `(ox, oy)` depends only
//! on `(mx - nx, my - ny)`, so a 64 x 64 block holds 15 x 15 = 225 distinct
//! entries and its product with a leaf is a 2-D convolution. Embedded
//! circularly in 16 x 16 that convolution is diagonal in the discrete Fourier
//! basis — the same shape as the far-field translation stage, one level
//! below the leaves:
//!
//! * **phase A** ([`NearField::forward`]): zero-pad a leaf's 8 x 8 block to
//!   16 x 16 and transform it — one 256-sample spectrum per leaf;
//! * **phase B** ([`NearField::accumulate`]): per observer leaf, accumulate
//!   `K_off[k] * S_src[k]` over its (at most nine) neighbours, transform back
//!   and add the 8 x 8 window onto the output.
//!
//! Spectra are split re/im planes of 256 `f64` each. The 2-D transforms are
//! two passes of a length-16 FFT down the rows of a 16-row array whose other
//! axis is 8 or 16 contiguous lanes. Each pass is two sweeps of radix-4
//! groups: rows `j, j + 4, j + 8, j + 12`, then rows `4 q .. 4 q + 4`; a group
//! loads a lane's four rows once, does both of its radix-2 levels in
//! registers and stores once — elementwise arithmetic across the lanes that
//! the compiler vectorises. The butterflies, their operations and their
//! order are those of four radix-2 sweeps, so the results are the same bits.
//! The forward (decimation-in-frequency) pass leaves bit-reversed order and
//! the inverse (decimation-in-time) pass consumes it, so no permutation pass
//! exists; both are pruned for the zero half of the padded input and the
//! discarded half of the output. Between the passes the planes are
//! transposed, in loops shaped so that the optimiser emits register
//! transposes (see `transpose` and `transpose_tall`). Every product that
//! feeds a sum is one `f64::mul_add` — the spectrum product `acc += K * S` as
//! `acc_re = fma(-k_im, s_im, fma(k_re, s_re, acc_re))`, `acc_im = fma(k_im,
//! s_re, fma(k_re, s_im, acc_im))`, a general twiddle as `(fma(-im, wi, re *
//! wr), fma(im, wr, re * wi))` — and a fused multiply-add is correctly rounded
//! wherever it runs, so the portable bodies and their `avx2,fma` instances
//! (`dispatch!`) are bit-identical.

use ffw_geometry::{Offset, LEAF_PIXELS, LEAF_SIDE, NEAR_OFFSETS};
use ffw_greens::Kernel;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{dispatch, C64};

/// Side of the zero-padded transform.
const N: usize = 2 * LEAF_SIDE;
/// Samples per spectrum plane.
const BINS: usize = N * N;
/// Side of one offset's table of distinct entries (`dx, dy` in `-7..=7`).
const TABLE_SIDE: usize = 2 * LEAF_SIDE - 1;
const TABLE_LEN: usize = TABLE_SIDE * TABLE_SIDE;

/// `f64` words of one leaf spectrum: the 256-sample re plane, then the im
/// plane, both indexed `[kx][ky]` in bit-reversed order.
pub const SPECTRUM_LEN: usize = 2 * BINS;

/// Flops executed per lane by the pruned forward pass: the first stage is
/// six general twiddle products (6 flops; `w^0` and `w^4` are a copy and a
/// swap), the second 2 x (4 + 10 + 4 + 10), the last two 8 x 4 each.
const FORWARD_LANE_FLOPS: u64 = 36 + 56 + 32 + 32;
/// Same for the pruned inverse pass, whose last stage computes sums only
/// (2 flops, or 6 + 2 with a general twiddle).
const INVERSE_LANE_FLOPS: u64 = 32 + 32 + 56 + (2 + 2 + 6 * 8);
/// Flops of [`NearField::forward`]: an 8-lane and a 16-lane pass.
pub const FORWARD_FLOPS: u64 = (LEAF_SIDE + N) as u64 * FORWARD_LANE_FLOPS;
/// Flops of the transform back in [`NearField::accumulate`], window add
/// included.
pub const INVERSE_FLOPS: u64 = (N + LEAF_SIDE) as u64 * INVERSE_LANE_FLOPS + 2 * LEAF_PIXELS as u64;
/// Flops of one `K_off[k] * S_src[k]` accumulation (8 per complex MAC).
pub const PAIR_FLOPS: u64 = 8 * BINS as u64;

const C1: f64 = 0.923_879_532_511_286_7; // cos(pi/8)
const S1: f64 = 0.382_683_432_365_089_8; // sin(pi/8)
const R2: f64 = std::f64::consts::FRAC_1_SQRT_2;
/// `w^k = e^{-2 pi i k / 16}` for `k` in `0..8`.
const TWIDDLE: [(f64, f64); 8] = [
    (1.0, 0.0),
    (C1, -S1),
    (R2, -R2),
    (S1, -C1),
    (0.0, -1.0),
    (-S1, -C1),
    (-R2, -R2),
    (-C1, -S1),
];

/// Position of a near offset in `NEAR_OFFSETS` order.
#[inline]
pub(crate) fn near_index(off: Offset) -> usize {
    ((off.1 + 1) as usize) * 3 + (off.0 + 1) as usize
}

/// `(re, im) * w^K`, or `* conj(w)^K` when `INV` — the two trivial twiddles
/// cost no arithmetic.
#[inline(always)]
fn twiddle<const K: usize, const INV: bool>(re: f64, im: f64) -> (f64, f64) {
    let (wr, wi) = TWIDDLE[K];
    let wi = if INV { -wi } else { wi };
    match K {
        0 => (re, im),
        4 if INV => (-im, re),
        4 => (im, -re),
        _ => ((-im).mul_add(wi, re * wr), im.mul_add(wr, re * wi)),
    }
}

/// A plane as four quads of rows: `[q][i]` is row `4 q + i`.
type Quads<const L: usize> = [[[f64; L]; 4]; 4];

#[inline(always)]
fn quads<const L: usize>(plane: &mut [[f64; L]; N]) -> &mut Quads<L> {
    let (quads, _) = plane.as_chunks_mut::<4>();
    quads.try_into().expect("16 rows are four quads")
}

/// Rows `j, j + 4, j + 8, j + 12` of a plane.
#[inline(always)]
fn every_fourth<const L: usize>(quads: &mut Quads<L>, j: usize) -> [&mut [f64; L]; 4] {
    quads.each_mut().map(|quad| &mut quad[j])
}

/// One complex sample as `(re, im)`.
type Sample = (f64, f64);

/// Decimation-in-frequency butterfly: `(a + b, (a - b) w^K)`. `PRUNED`
/// takes `b = 0`: `(a, a w^K)`.
#[inline(always)]
fn dif<const K: usize, const PRUNED: bool>(a: Sample, b: Sample) -> (Sample, Sample) {
    if PRUNED {
        (a, twiddle::<K, false>(a.0, a.1))
    } else {
        let d = twiddle::<K, false>(a.0 - b.0, a.1 - b.1);
        ((a.0 + b.0, a.1 + b.1), d)
    }
}

/// Decimation-in-time inverse butterfly: with `t = b conj(w)^K`, `(a + t,
/// a - t)`. `PRUNED` skips `a - t` and hands `b` back in its place.
#[inline(always)]
fn dit<const K: usize, const PRUNED: bool>(a: Sample, b: Sample) -> (Sample, Sample) {
    let t = twiddle::<K, true>(b.0, b.1);
    let sum = (a.0 + t.0, a.1 + t.1);
    if PRUNED {
        (sum, b)
    } else {
        (sum, (a.0 - t.0, a.1 - t.1))
    }
}

/// Two radix-2 stages of the forward transform on four rows `r0, r1, r2,
/// r3` of a plane, across `L` lanes: the butterflies `(r0, r2)` with
/// `w^K0` and `(r1, r3)` with `w^K1`, then `(r0, r1)` and `(r2, r3)` with
/// `w^K2`. Each lane's eight values are loaded once and stored once.
/// `PRUNED`: rows `r2`, `r3` are zero (and are not read).
#[inline(always)]
fn dif4<const L: usize, const K0: usize, const K1: usize, const K2: usize, const PRUNED: bool>(
    [r0, r1, r2, r3]: [&mut [f64; L]; 4],
    [i0, i1, i2, i3]: [&mut [f64; L]; 4],
) {
    for l in 0..L {
        let (a, b) = ((r0[l], i0[l]), (r1[l], i1[l]));
        let (c, d) = if PRUNED {
            ((0.0, 0.0), (0.0, 0.0))
        } else {
            ((r2[l], i2[l]), (r3[l], i3[l]))
        };
        let (a, c) = dif::<K0, PRUNED>(a, c);
        let (b, d) = dif::<K1, PRUNED>(b, d);
        ((r0[l], i0[l]), (r1[l], i1[l])) = dif::<K2, false>(a, b);
        ((r2[l], i2[l]), (r3[l], i3[l])) = dif::<K2, false>(c, d);
    }
}

/// Two radix-2 stages of the inverse transform, [`dif4`] backwards: the
/// butterflies `(r0, r1)` and `(r2, r3)` with `conj(w)^K2`, then `(r0, r2)`
/// with `conj(w)^K0` and `(r1, r3)` with `conj(w)^K1`. `PRUNED`: rows `r2`,
/// `r3` are not stored.
#[inline(always)]
fn dit4<const L: usize, const K0: usize, const K1: usize, const K2: usize, const PRUNED: bool>(
    [r0, r1, r2, r3]: [&mut [f64; L]; 4],
    [i0, i1, i2, i3]: [&mut [f64; L]; 4],
) {
    for l in 0..L {
        let (a, b) = dit::<K2, false>((r0[l], i0[l]), (r1[l], i1[l]));
        let (c, d) = dit::<K2, false>((r2[l], i2[l]), (r3[l], i3[l]));
        let (a, c) = dit::<K0, PRUNED>(a, c);
        let (b, d) = dit::<K1, PRUNED>(b, d);
        ((r0[l], i0[l]), (r1[l], i1[l])) = (a, b);
        if !PRUNED {
            ((r2[l], i2[l]), (r3[l], i3[l])) = (c, d);
        }
    }
}

/// Forward length-16 transform down the rows, natural order in, bit-reversed
/// out, as two sweeps of radix-4 groups. `PRUNED`: rows 8.. of the input are
/// zero (and are not read).
#[inline(always)]
fn dif16<const L: usize, const PRUNED: bool>(re: &mut [[f64; L]; N], im: &mut [[f64; L]; N]) {
    let (re, im) = (quads(re), quads(im));
    // stages 1 and 2: rows j, j + 4, j + 8, j + 12 with w^j, w^{j+4}, then w^{2j}
    dif4::<L, 0, 4, 0, PRUNED>(every_fourth(re, 0), every_fourth(im, 0));
    dif4::<L, 1, 5, 2, PRUNED>(every_fourth(re, 1), every_fourth(im, 1));
    dif4::<L, 2, 6, 4, PRUNED>(every_fourth(re, 2), every_fourth(im, 2));
    dif4::<L, 3, 7, 6, PRUNED>(every_fourth(re, 3), every_fourth(im, 3));
    // stages 3 and 4: the rows of each quad with w^0, w^4, then w^0
    for (re, im) in re.iter_mut().zip(im) {
        dif4::<L, 0, 4, 0, false>(re.each_mut(), im.each_mut());
    }
}

/// Unnormalised inverse of [`dif16`]: bit-reversed order in, natural order
/// out, its two sweeps in the opposite order. `PRUNED`: only rows ..8 of the
/// output are produced.
#[inline(always)]
fn dit16<const L: usize, const PRUNED: bool>(re: &mut [[f64; L]; N], im: &mut [[f64; L]; N]) {
    let (re, im) = (quads(re), quads(im));
    // stages 4 and 3: the rows of each quad with conj(w)^0, then conj(w)^0 and conj(w)^4
    for (re, im) in re.iter_mut().zip(im.iter_mut()) {
        dit4::<L, 0, 4, 0, false>(re.each_mut(), im.each_mut());
    }
    // stages 2 and 1: rows j, j + 4, j + 8, j + 12
    dit4::<L, 0, 4, 0, PRUNED>(every_fourth(re, 0), every_fourth(im, 0));
    dit4::<L, 1, 5, 2, PRUNED>(every_fourth(re, 1), every_fourth(im, 1));
    dit4::<L, 2, 6, 4, PRUNED>(every_fourth(re, 2), every_fourth(im, 2));
    dit4::<L, 3, 7, 6, PRUNED>(every_fourth(re, 3), every_fourth(im, 3));
}

/// `dst[c][r] = src[r][c]` for every row of `src`, one output row at a
/// time. Where the source rows are 16 lanes wide (the transform back) the
/// optimiser turns this into register transposes: full-width loads, unpack
/// and 128-bit permute shuffles, full-width stores.
#[inline(always)]
fn transpose<const R: usize, const A: usize, const B: usize>(
    src: &[[f64; A]; R],
    dst: &mut [[f64; B]; N],
) {
    const { assert!(A <= N && R <= B) };
    for c in 0..A {
        for r in 0..R {
            dst[c][r] = src[r][c];
        }
    }
}

/// [`transpose`] of the forward pass's 16 rows of 8 lanes into rows ..8 of
/// `dst`. Transposed directly, 8-lane rows compile to scalar or pairwise
/// moves, so the rows go in side by side as 8 rows of 16 — `pairs[k] =
/// [src[2 k], src[2 k + 1]]` — whose transpose `t[8 h + c][k] = src[2 k +
/// h][c]` holds each output row as its even and its odd samples, which one
/// interleave puts together. The fixed-size view of `pairs` matters: through
/// a slice the optimiser falls back to scalar moves.
#[inline(always)]
fn transpose_tall(src: &[[f64; LEAF_SIDE]; N], dst: &mut [[f64; N]; N]) {
    let pairs: &[[f64; N]; LEAF_SIDE] = src
        .as_flattened()
        .as_chunks()
        .0
        .try_into()
        .expect("16 rows of 8 are 8 rows of 16");
    let mut t = [[0.0; LEAF_SIDE]; N];
    transpose(pairs, &mut t);
    for c in 0..LEAF_SIDE {
        for k in 0..LEAF_SIDE {
            dst[c][2 * k] = t[c][k];
            dst[c][2 * k + 1] = t[LEAF_SIDE + c][k];
        }
    }
}

/// A 256-sample plane of a spectrum as 16 rows of 16 lanes.
#[inline(always)]
fn plane_mut(plane: &mut [f64]) -> &mut [[f64; N]; N] {
    plane
        .as_chunks_mut::<N>()
        .0
        .try_into()
        .expect("a spectrum plane holds 16 x 16 samples")
}

/// Full 2-D forward transform of a 16 x 16 array `[y][x]`, result `[kx][ky]`.
fn forward_full(re: &mut [[f64; N]; N], im: &mut [[f64; N]; N]) {
    dif16::<N, false>(re, im);
    let (src_re, src_im) = (*re, *im);
    transpose(&src_re, re);
    transpose(&src_im, im);
    dif16::<N, false>(re, im);
}

#[inline(always)]
fn forward_body(x: &[C64; LEAF_PIXELS], spectrum: &mut [f64; SPECTRUM_LEN]) {
    let mut re = [[0.0; LEAF_SIDE]; N];
    let mut im = [[0.0; LEAF_SIDE]; N];
    for ((pixels, re), im) in x.chunks_exact(LEAF_SIDE).zip(&mut re).zip(&mut im) {
        for ((v, re), im) in pixels.iter().zip(re).zip(im) {
            (*re, *im) = (v.re, v.im);
        }
    }
    dif16::<LEAF_SIDE, true>(&mut re, &mut im); // along y: [ky][x]
    let (sre, sim) = spectrum.split_at_mut(BINS);
    let (sre, sim) = (plane_mut(sre), plane_mut(sim));
    transpose_tall(&re, sre); // rows ..8 = [x][ky]
    transpose_tall(&im, sim);
    dif16::<N, true>(sre, sim); // along x: [kx][ky]
}

/// A spectrum as rows of 16 bins: the 16 rows of the re plane, then the 16
/// of the im plane.
type Rows = [[f64; N]; 2 * N];

/// The rows of one leaf spectrum.
#[inline(always)]
fn rows_of(spectrum: &[f64]) -> &Rows {
    let (rows, rest) = spectrum.as_chunks::<N>();
    assert!(rest.is_empty(), "one leaf spectrum");
    rows.try_into().expect("one leaf spectrum")
}

#[inline(always)]
fn accumulate_body(sources: &[(&Rows, &Rows)], out: &mut [C64; LEAF_PIXELS]) {
    let mut re = [[0.0; N]; N];
    let mut im = [[0.0; N]; N];
    // One row of 16 bins at a time, summed in locals so the sums stay in
    // registers across the neighbours. `sources` holds each neighbour's
    // kernel and spectrum as fixed-size rows, so nothing is looked up, sliced
    // or bounds-checked in here.
    for r in 0..N {
        let (mut acc_re, mut acc_im) = ([0.0; N], [0.0; N]);
        for (k, s) in sources {
            let (k_re, k_im, s_re, s_im) = (&k[r], &k[N + r], &s[r], &s[N + r]);
            for i in 0..N {
                acc_re[i] = (-k_im[i]).mul_add(s_im[i], k_re[i].mul_add(s_re[i], acc_re[i]));
                acc_im[i] = k_im[i].mul_add(s_re[i], k_re[i].mul_add(s_im[i], acc_im[i]));
            }
        }
        (re[r], im[r]) = (acc_re, acc_im);
    }
    dit16::<N, true>(&mut re, &mut im); // along kx: rows ..8 = [x][ky]
    let mut wre = [[0.0; LEAF_SIDE]; N];
    let mut wim = [[0.0; LEAF_SIDE]; N];
    let (re, im) = (re.first_chunk::<LEAF_SIDE>(), im.first_chunk::<LEAF_SIDE>());
    transpose(re.expect("rows ..8"), &mut wre); // [ky][x]
    transpose(im.expect("rows ..8"), &mut wim);
    dit16::<LEAF_SIDE, true>(&mut wre, &mut wim); // along ky: rows ..8 = [y][x]
    for ((pixels, re), im) in out.chunks_exact_mut(LEAF_SIDE).zip(&wre).zip(&wim) {
        for ((o, re), im) in pixels.iter_mut().zip(re).zip(im) {
            o.re += re;
            o.im += im;
        }
    }
}

/// The near-field operator of one plan: nine 15 x 15 tables of distinct
/// block entries and their 16 x 16 spectra.
pub struct NearField {
    /// `table[oi * 225 + (dy + 7) * 15 + (dx + 7)]`: interaction of an
    /// observer pixel with the source pixel `(dx, dy)` pixels *before* it in
    /// the leaf at offset `NEAR_OFFSETS[oi]`.
    table: Vec<C64>,
    /// Per offset one spectrum (the `1/256` of the inverse transform folded
    /// in).
    kernels: Vec<Rows>,
}

impl NearField {
    /// Evaluates the nine tables on a grid of pixel size `px` and transforms
    /// them.
    pub fn new(kernel: &Kernel, px: f64) -> Self {
        let span = LEAF_SIDE as i32 - 1;
        let mut table = Vec::with_capacity(NEAR_OFFSETS.len() * TABLE_LEN);
        let mut kernels = Vec::with_capacity(NEAR_OFFSETS.len());
        for (ox, oy) in NEAR_OFFSETS {
            let mut re = [[0.0; N]; N];
            let mut im = [[0.0; N]; N];
            for dy in -span..=span {
                for dx in -span..=span {
                    // observer minus source, the source leaf displaced by
                    // the offset
                    let rx = (dx - ox as i32 * LEAF_SIDE as i32) as f64 * px;
                    let ry = (dy - oy as i32 * LEAF_SIDE as i32) as f64 * px;
                    let t = kernel.g0_element(rx.hypot(ry));
                    table.push(t);
                    let (iy, ix) = (dy.rem_euclid(N as i32), dx.rem_euclid(N as i32));
                    re[iy as usize][ix as usize] = t.re;
                    im[iy as usize][ix as usize] = t.im;
                }
            }
            forward_full(&mut re, &mut im);
            let scale = 1.0 / BINS as f64;
            let mut spectrum = [[0.0; N]; 2 * N];
            for (k, v) in spectrum.iter_mut().zip(re.iter().chain(&im)) {
                *k = v.map(|v| v * scale);
            }
            kernels.push(spectrum);
        }
        NearField { table, kernels }
    }

    /// Number of neighbour offsets (Table I's near-field types).
    pub fn n_offsets(&self) -> usize {
        self.table.len() / TABLE_LEN
    }

    /// Rebuilds the dense 64 x 64 block of one offset from its table (row =
    /// observer pixel, column = source pixel, both row-major in the leaf).
    pub fn dense_block(&self, off: Offset) -> Matrix {
        let t = &self.table[near_index(off) * TABLE_LEN..][..TABLE_LEN];
        let span = LEAF_SIDE - 1;
        Matrix::from_fn(LEAF_PIXELS, LEAF_PIXELS, |m, n| {
            let dx = m % LEAF_SIDE + span - n % LEAF_SIDE;
            let dy = m / LEAF_SIDE + span - n / LEAF_SIDE;
            t[dy * TABLE_SIDE + dx]
        })
    }

    /// Phase A: the spectrum of one leaf's 64 pixels.
    pub fn forward(&self, x: &[C64], spectrum: &mut [f64]) {
        let x: &[C64; LEAF_PIXELS] = x.try_into().expect("one leaf of pixels");
        let spectrum: &mut [f64; SPECTRUM_LEN] = spectrum.try_into().expect("one leaf spectrum");
        dispatch!(forward_body(x: &[C64; LEAF_PIXELS], spectrum: &mut [f64; SPECTRUM_LEN]));
    }

    /// Phase B: adds onto `out` (one observer leaf's 64 pixels) the near
    /// field of `pairs` — `(source leaf, near_index of its offset)`, the rows
    /// of [`crate::MlfmaPlan::near_pairs_of`] — each source's spectrum looked
    /// up through `spectrum_of` once, summed in the order given.
    pub fn accumulate<'a>(
        &self,
        pairs: &[(u32, u32)],
        spectrum_of: impl Fn(usize) -> &'a [f64],
        out: &mut [C64],
    ) {
        let out: &mut [C64; LEAF_PIXELS] = out.try_into().expect("one leaf of pixels");
        let mut sources = [(&self.kernels[0], &self.kernels[0]); NEAR_OFFSETS.len()];
        assert!(pairs.len() <= sources.len(), "at most nine neighbours");
        for (source, &(leaf, off)) in sources.iter_mut().zip(pairs) {
            *source = (
                &self.kernels[off as usize],
                rows_of(spectrum_of(leaf as usize)),
            );
        }
        let sources = &sources[..pairs.len()];
        dispatch!(accumulate_body(sources: &[(&Rows, &Rows)], out: &mut [C64; LEAF_PIXELS]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::{morton_decode, morton_encode, Domain, QuadTree};
    use ffw_numerics::c64;
    use ffw_numerics::fft::dft_naive;
    use ffw_numerics::vecops::rel_diff;

    fn random_x(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    fn scene() -> (Domain, Kernel, NearField) {
        let domain = Domain::new(32, 1.0);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let near = NearField::new(&kernel, domain.pixel_size());
        (domain, kernel, near)
    }

    fn bit_reverse(k: usize) -> usize {
        (k as u8).reverse_bits() as usize >> 4
    }

    /// The transforms stage by stage: one radix-2 butterfly per call, each
    /// loading and storing its two rows — the reference the register sweeps
    /// must match bit for bit.
    mod radix2 {
        use super::super::{twiddle, N};

        /// Rows `i < j` of a plane, both mutable.
        fn rows<const L: usize>(
            plane: &mut [[f64; L]; N],
            i: usize,
            j: usize,
        ) -> (&mut [f64; L], &mut [f64; L]) {
            let (lo, hi) = plane.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        }

        /// `a' = a + b`, `b' = (a - b) w^K` on rows `i`, `j`. `PRUNED` takes
        /// `b = 0` and leaves `a`.
        fn dif<const L: usize, const K: usize, const PRUNED: bool>(
            re: &mut [[f64; L]; N],
            im: &mut [[f64; L]; N],
            i: usize,
            j: usize,
        ) {
            let (ar, br) = rows(re, i, j);
            let (ai, bi) = rows(im, i, j);
            for l in 0..L {
                let (dr, di) = if PRUNED {
                    (ar[l], ai[l])
                } else {
                    let d = (ar[l] - br[l], ai[l] - bi[l]);
                    ar[l] += br[l];
                    ai[l] += bi[l];
                    d
                };
                (br[l], bi[l]) = twiddle::<K, false>(dr, di);
            }
        }

        /// `t = b conj(w)^K`, `a' = a + t`, `b' = a - t` on rows `i`, `j`.
        /// `PRUNED` skips `b'`.
        fn dit<const L: usize, const K: usize, const PRUNED: bool>(
            re: &mut [[f64; L]; N],
            im: &mut [[f64; L]; N],
            i: usize,
            j: usize,
        ) {
            let (ar, br) = rows(re, i, j);
            let (ai, bi) = rows(im, i, j);
            for l in 0..L {
                let (tr, ti) = twiddle::<K, true>(br[l], bi[l]);
                if !PRUNED {
                    br[l] = ar[l] - tr;
                    bi[l] = ai[l] - ti;
                }
                ar[l] += tr;
                ai[l] += ti;
            }
        }

        pub(super) fn dif16<const L: usize, const PRUNED: bool>(
            re: &mut [[f64; L]; N],
            im: &mut [[f64; L]; N],
        ) {
            dif::<L, 0, PRUNED>(re, im, 0, 8);
            dif::<L, 1, PRUNED>(re, im, 1, 9);
            dif::<L, 2, PRUNED>(re, im, 2, 10);
            dif::<L, 3, PRUNED>(re, im, 3, 11);
            dif::<L, 4, PRUNED>(re, im, 4, 12);
            dif::<L, 5, PRUNED>(re, im, 5, 13);
            dif::<L, 6, PRUNED>(re, im, 6, 14);
            dif::<L, 7, PRUNED>(re, im, 7, 15);
            for b in [0, 8] {
                dif::<L, 0, false>(re, im, b, b + 4);
                dif::<L, 2, false>(re, im, b + 1, b + 5);
                dif::<L, 4, false>(re, im, b + 2, b + 6);
                dif::<L, 6, false>(re, im, b + 3, b + 7);
            }
            for b in [0, 4, 8, 12] {
                dif::<L, 0, false>(re, im, b, b + 2);
                dif::<L, 4, false>(re, im, b + 1, b + 3);
            }
            for b in [0, 2, 4, 6, 8, 10, 12, 14] {
                dif::<L, 0, false>(re, im, b, b + 1);
            }
        }

        pub(super) fn dit16<const L: usize, const PRUNED: bool>(
            re: &mut [[f64; L]; N],
            im: &mut [[f64; L]; N],
        ) {
            for b in [0, 2, 4, 6, 8, 10, 12, 14] {
                dit::<L, 0, false>(re, im, b, b + 1);
            }
            for b in [0, 4, 8, 12] {
                dit::<L, 0, false>(re, im, b, b + 2);
                dit::<L, 4, false>(re, im, b + 1, b + 3);
            }
            for b in [0, 8] {
                dit::<L, 0, false>(re, im, b, b + 4);
                dit::<L, 2, false>(re, im, b + 1, b + 5);
                dit::<L, 4, false>(re, im, b + 2, b + 6);
                dit::<L, 6, false>(re, im, b + 3, b + 7);
            }
            dit::<L, 0, PRUNED>(re, im, 0, 8);
            dit::<L, 1, PRUNED>(re, im, 1, 9);
            dit::<L, 2, PRUNED>(re, im, 2, 10);
            dit::<L, 3, PRUNED>(re, im, 3, 11);
            dit::<L, 4, PRUNED>(re, im, 4, 12);
            dit::<L, 5, PRUNED>(re, im, 5, 13);
            dit::<L, 6, PRUNED>(re, im, 6, 14);
            dit::<L, 7, PRUNED>(re, im, 7, 15);
        }

        /// `dst[c][r] = src[r][c]`, one element at a time.
        pub(super) fn transpose<const A: usize, const B: usize>(
            src: &[[f64; A]],
            dst: &mut [[f64; B]; N],
        ) {
            for (r, row) in src.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    dst[c][r] = *v;
                }
            }
        }
    }

    /// `R` seeded random rows of `L` lanes.
    fn random_rows<const R: usize, const L: usize>(seed: u64) -> [[f64; L]; R] {
        let v = random_x(R * L, seed);
        std::array::from_fn(|r| std::array::from_fn(|l| v[r * L + l].re))
    }

    /// Both register sweeps against the radix-2 stages on `L` lanes, pruned
    /// and unpruned. The pruned forward pass gets NaN in the rows it must not
    /// read; the pruned inverse pass is compared on the rows it produces.
    fn sweeps_match_the_radix2_stages<const L: usize>() {
        for seed in 0..3 {
            let (re, im) = (random_rows::<N, L>(seed), random_rows::<N, L>(seed + 100));

            let (mut want_re, mut want_im) = (re, im);
            radix2::dif16::<L, false>(&mut want_re, &mut want_im);
            let (mut got_re, mut got_im) = (re, im);
            dif16::<L, false>(&mut got_re, &mut got_im);
            assert_eq!((got_re, got_im), (want_re, want_im), "dif16 L = {L}");

            let (mut padded_re, mut padded_im) = (re, im);
            padded_re[LEAF_SIDE..].fill([f64::NAN; L]);
            padded_im[LEAF_SIDE..].fill([f64::NAN; L]);
            let (mut want_re, mut want_im) = (padded_re, padded_im);
            radix2::dif16::<L, true>(&mut want_re, &mut want_im);
            let (mut got_re, mut got_im) = (padded_re, padded_im);
            dif16::<L, true>(&mut got_re, &mut got_im);
            assert_eq!((got_re, got_im), (want_re, want_im), "pruned dif16 L = {L}");

            let (mut want_re, mut want_im) = (re, im);
            radix2::dit16::<L, false>(&mut want_re, &mut want_im);
            let (mut got_re, mut got_im) = (re, im);
            dit16::<L, false>(&mut got_re, &mut got_im);
            assert_eq!((got_re, got_im), (want_re, want_im), "dit16 L = {L}");

            let (mut want_re, mut want_im) = (re, im);
            radix2::dit16::<L, true>(&mut want_re, &mut want_im);
            let (mut got_re, mut got_im) = (re, im);
            dit16::<L, true>(&mut got_re, &mut got_im);
            let produced = |p: [[f64; L]; N]| p[..LEAF_SIDE].to_vec();
            assert_eq!(
                (produced(got_re), produced(got_im)),
                (produced(want_re), produced(want_im)),
                "pruned dit16 L = {L}"
            );
        }
    }

    #[test]
    fn register_sweeps_are_bit_identical_to_the_radix2_stages() {
        sweeps_match_the_radix2_stages::<LEAF_SIDE>();
        sweeps_match_the_radix2_stages::<N>();
    }

    /// A transpose of `R` rows of `A` lanes into `A` rows of `B` lanes
    /// against the element loop, on a destination prefilled at random so
    /// the entries it must not touch are compared too.
    fn transpose_matches_the_element_loop<const R: usize, const A: usize, const B: usize>(
        transpose: impl Fn(&[[f64; A]; R], &mut [[f64; B]; N]),
    ) {
        let src = random_rows::<R, A>(5);
        let (mut got, mut want) = (random_rows::<N, B>(6), random_rows::<N, B>(6));
        transpose(&src, &mut got);
        radix2::transpose(&src, &mut want);
        assert_eq!(got, want, "{R} x {A}");
    }

    #[test]
    fn register_transposes_are_bit_identical_to_the_element_loop() {
        transpose_matches_the_element_loop(transpose_tall); // 16 x 8
        transpose_matches_the_element_loop(transpose::<LEAF_SIDE, N, LEAF_SIDE>); // 8 x 16
        transpose_matches_the_element_loop(transpose::<N, N, N>);
    }

    #[test]
    fn dense_blocks_match_kernel_elements() {
        let (domain, kernel, near) = scene();
        let px = domain.pixel_size();
        assert_eq!(near.n_offsets(), 9);
        for (ox, oy) in NEAR_OFFSETS {
            let block = near.dense_block((ox, oy));
            for m in 0..LEAF_PIXELS {
                for n in 0..LEAF_PIXELS {
                    // observation pixel m in the leaf at the origin, source
                    // pixel n in the leaf offset by (ox, oy) leaf widths
                    let mx = (m % LEAF_SIDE) as f64;
                    let my = (m / LEAF_SIDE) as f64;
                    let nx = (n % LEAF_SIDE) as f64 + ox as f64 * LEAF_SIDE as f64;
                    let ny = (n / LEAF_SIDE) as f64 + oy as f64 * LEAF_SIDE as f64;
                    let r = ((mx - nx) * px).hypot((my - ny) * px);
                    assert_eq!(
                        block.at(m, n),
                        kernel.g0_element(r),
                        "({ox},{oy}) [{m},{n}]"
                    );
                }
            }
        }
        let own = near.dense_block((0, 0));
        for d in 0..LEAF_PIXELS {
            assert_eq!(own.at(d, d), kernel.self_term);
        }
    }

    #[test]
    fn every_offset_matches_its_dense_block() {
        let (_, _, near) = scene();
        let x = random_x(LEAF_PIXELS, 7);
        let mut spectrum = vec![0.0; SPECTRUM_LEN];
        near.forward(&x, &mut spectrum);
        for off in NEAR_OFFSETS {
            let mut y = random_x(LEAF_PIXELS, 8);
            let mut y_ref = y.clone();
            near.accumulate(&[(0, near_index(off) as u32)], |_| &spectrum, &mut y);
            near.dense_block(off).matvec_acc(&x, &mut y_ref);
            let err = rel_diff(&y, &y_ref);
            assert!(err <= 1e-13, "offset {off:?}: {err:e}");
        }
    }

    #[test]
    fn corner_edge_and_interior_leaves_match_the_dense_sum() {
        let (domain, _, near) = scene();
        let tree = QuadTree::new(&domain);
        let x = random_x(tree.n_pixels(), 11);
        let mut spectra = vec![0.0; tree.n_leaves() * SPECTRUM_LEN];
        for (c, spectrum) in spectra.chunks_mut(SPECTRUM_LEN).enumerate() {
            near.forward(&x[c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS], spectrum);
        }
        let blocks: Vec<Matrix> = NEAR_OFFSETS.iter().map(|&o| near.dense_block(o)).collect();
        let mut neighbours = Vec::new();
        for c in 0..tree.n_leaves() {
            let (ix, iy) = morton_decode(c as u32);
            let list = tree.near_list(ix as usize, iy as usize);
            neighbours.push(list.len());
            let mut y = vec![C64::ZERO; LEAF_PIXELS];
            let mut y_ref = y.clone();
            let spectrum_of = |s: usize| &spectra[s * SPECTRUM_LEN..(s + 1) * SPECTRUM_LEN];
            let pairs: Vec<(u32, u32)> = list
                .iter()
                .map(|&(sx, sy, off)| (morton_encode(sx as u32, sy as u32), near_index(off) as u32))
                .collect();
            near.accumulate(&pairs, spectrum_of, &mut y);
            for &(s, off) in &pairs {
                let s = s as usize;
                blocks[off as usize]
                    .matvec_acc(&x[s * LEAF_PIXELS..(s + 1) * LEAF_PIXELS], &mut y_ref);
            }
            let err = rel_diff(&y, &y_ref);
            assert!(err <= 1e-13, "leaf {c} ({ix},{iy}): {err:e}");
        }
        for n in [4, 6, 9] {
            assert!(neighbours.contains(&n), "no leaf with {n} neighbours");
        }
    }

    #[test]
    fn pruned_transform_matches_naive_dft_and_round_trips() {
        let x = random_x(LEAF_PIXELS, 3);
        let mut spectrum = [0.0; SPECTRUM_LEN];
        forward_body(x.as_slice().try_into().unwrap(), &mut spectrum);

        // 2-D DFT of the zero-padded block: along x, then along y.
        let mut padded = vec![vec![C64::ZERO; N]; N];
        for (j, v) in x.iter().enumerate() {
            padded[j / LEAF_SIDE][j % LEAF_SIDE] = *v;
        }
        let rows: Vec<Vec<C64>> = padded.iter().map(|row| dft_naive(row)).collect();
        for kx in 0..N {
            let column: Vec<C64> = rows.iter().map(|row| row[kx]).collect();
            for (ky, want) in dft_naive(&column).into_iter().enumerate() {
                let at = bit_reverse(kx) * N + bit_reverse(ky);
                let got = c64(spectrum[at], spectrum[BINS + at]);
                assert!(
                    (got - want).abs() < 1e-12,
                    "[{kx}][{ky}] {got:?} vs {want:?}"
                );
            }
        }

        // A unit impulse at the origin has the all-ones spectrum: with it as
        // the (0, 0) kernel, accumulate is forward followed by inverse.
        let mut impulse = [[0.0; N]; 2 * N];
        impulse[..N].fill([1.0 / BINS as f64; N]);
        let mut back = [C64::ZERO; LEAF_PIXELS];
        accumulate_body(&[(&impulse, rows_of(&spectrum))], &mut back);
        assert!(rel_diff(&back, &x) < 1e-15);
    }

    #[test]
    fn dispatched_path_is_bit_identical_to_portable() {
        let (_, _, near) = scene();
        let x = random_x(9 * LEAF_PIXELS, 19);
        let mut spectra = vec![0.0; 9 * SPECTRUM_LEN];
        for (leaf, spectrum) in x.chunks(LEAF_PIXELS).zip(spectra.chunks_mut(SPECTRUM_LEN)) {
            near.forward(leaf, spectrum);
            let mut portable = [0.0; SPECTRUM_LEN];
            forward_body(leaf.try_into().unwrap(), &mut portable);
            assert_eq!(spectrum, portable);
        }
        let spectrum_of = |s: usize| &spectra[s * SPECTRUM_LEN..(s + 1) * SPECTRUM_LEN];
        // `(source leaf, offset)`: one, three, four (a corner) and nine sources
        let lists: [&[(u32, u32)]; 4] = [
            &[(2, 4)],
            &[(0, 3), (1, 4), (2, 8)],
            &[(5, 4), (6, 5), (7, 7), (8, 8)],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8].map(|i| (8 - i, i)),
        ];
        for pairs in lists {
            let seed = random_x(LEAF_PIXELS, 23);
            let mut y = seed.clone();
            near.accumulate(pairs, spectrum_of, &mut y);

            let sources: Vec<(&Rows, &Rows)> = pairs
                .iter()
                .map(|&(s, off)| {
                    (
                        &near.kernels[off as usize],
                        rows_of(spectrum_of(s as usize)),
                    )
                })
                .collect();
            let mut portable: [C64; LEAF_PIXELS] = seed.as_slice().try_into().unwrap();
            accumulate_body(&sources, &mut portable);
            assert_eq!(y, portable, "{} sources", pairs.len());

            // The product loop, bin by bin: each source enters by one fused
            // multiply-add per real term, in list order from zero. With the
            // kernel `1 + 0i` the body's own product returns its source
            // exactly, which leaves the transform back of these sums.
            let mut sums = [[0.0; N]; 2 * N];
            for r in 0..N {
                for i in 0..N {
                    let (mut acc_re, mut acc_im) = (0.0f64, 0.0f64);
                    for (k, s) in &sources {
                        let (k_re, k_im, s_re, s_im) = (k[r][i], k[N + r][i], s[r][i], s[N + r][i]);
                        acc_re = f64::mul_add(-k_im, s_im, f64::mul_add(k_re, s_re, acc_re));
                        acc_im = f64::mul_add(k_im, s_re, f64::mul_add(k_re, s_im, acc_im));
                    }
                    (sums[r][i], sums[N + r][i]) = (acc_re, acc_im);
                }
            }
            let mut one = [[0.0; N]; 2 * N];
            one[..N].fill([1.0; N]);
            let mut want: [C64; LEAF_PIXELS] = seed.as_slice().try_into().unwrap();
            accumulate_body(&[(&one, &sums)], &mut want);
            assert_eq!(y, want, "{} sources", pairs.len());
        }
    }
}

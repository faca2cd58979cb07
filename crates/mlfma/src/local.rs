//! The two dense leaf operators (Table I's first and last far-field rows),
//! both over split re/im planes: the multipole expansion, a leaf's 64 pixel
//! sources to its outgoing far-field pattern, and the local expansion, its
//! incoming pattern back to the 64 pixel fields (the quadrature-weighted
//! adjoint of the multipole expansion).
//!
//! Both work on pixel *pairs*. The 64 pixels of a leaf sit symmetrically
//! about its centre — pixel `63 - k` is pixel `k` mirrored through it — so
//! the phase argument of `E[r, 63 - k]` is the exact negation of that of
//! `E[r, k]`, and `cis(-t) = conj(cis(t))` bit for bit: `E[r, 63 - k] ==
//! conj(E[r, k])`. The constructors check that on the matrix they are given
//! and keep its first 32 columns only. With `e = E[r, k]`:
//!
//! * radiating, `e a + conj(e) b = e.re (a + b) + i e.im (a - b)`: the sum
//!   and the difference of the two pixels are formed once per leaf and every
//!   sample takes two real products from each;
//! * receiving, `conj(e) g` and `e g` share the four real products
//!   `e.re g.re`, `e.im g.im`, `e.re g.im`, `e.im g.re`: their four sums over
//!   the samples give pixel `k` and pixel `63 - k` by one addition and one
//!   subtraction each.
//!
//! Half the multiplies and half the operator bytes of the full `q x 64`
//! products, at the price of a different association of each output's sum
//! than `Matrix::matvec` / `Matrix::matvec_adjoint_acc` (agreement to a few
//! ulp of the sum of magnitudes, not bit for bit).
//!
//! Each keeps its planes in the orientation that makes its output the
//! contiguous lane dimension: [`MultipoleExpansion`] pair-major (`[k][r]`),
//! so one broadcast pair updates a register-sized block of the `q` samples;
//! [`LocalExpansion`] sample-major (`[r][k]`), so one pattern sample updates
//! a register-sized block of the pairs. Either way the loop is plain
//! elementwise arithmetic the compiler vectorises, and every output element
//! sees its terms in one fixed order (pairs ascending, resp. samples
//! ascending) whatever the block it falls in. Every term enters its sum by
//! one `f64::mul_add` — radiating, `acc_re = fma(-e.im, d.im, fma(e.re, s.re,
//! acc_re))` and `acc_im = fma(e.im, d.re, fma(e.re, s.im, acc_im))`;
//! receiving, `acc = fma(e, g, acc)` for each of the four sums — and a fused
//! multiply-add is correctly rounded wherever it runs, so the portable body
//! and its `avx2,fma` instance (`dispatch!`) agree bit for bit.

use ffw_geometry::LEAF_PIXELS;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{c64, dispatch, C64};

/// Mirrored pixel pairs `(k, 63 - k)` of one leaf.
const PAIRS: usize = LEAF_PIXELS / 2;

/// Panics unless `E[r, 63 - k] == conj(E[r, k])` bit for bit, which is what
/// both kernels assume of the half they keep.
fn assert_conjugate_symmetric(expansion: &Matrix) {
    assert_eq!(expansion.cols(), LEAF_PIXELS);
    for r in 0..expansion.rows() {
        for k in 0..PAIRS {
            let mirror = LEAF_PIXELS - 1 - k;
            let (e, m) = (expansion.at(r, k), expansion.at(r, mirror));
            assert!(
                m.re.to_bits() == e.re.to_bits() && m.im.to_bits() == (-e.im).to_bits(),
                "leaf expansion is not conjugate-symmetric about the leaf centre: \
                 E[{r}, {mirror}] = {m:?} but E[{r}, {k}] = {e:?}"
            );
        }
    }
}

/// Samples `r0..r0 + R` of one leaf's pattern: the accumulators stay in
/// registers across the 32 pairs.
#[inline(always)]
fn radiate_block<const R: usize>(
    re: &[f64],
    im: &[f64],
    r0: usize,
    sums: &[C64; PAIRS],
    diffs: &[C64; PAIRS],
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let q = out_re.len();
    let mut acc_re = [0.0; R];
    let mut acc_im = [0.0; R];
    for (k, (s, d)) in sums.iter().zip(diffs).enumerate() {
        let er: &[f64; R] = re[k * q + r0..][..R].try_into().expect("R samples");
        let ei: &[f64; R] = im[k * q + r0..][..R].try_into().expect("R samples");
        for l in 0..R {
            acc_re[l] = (-ei[l]).mul_add(d.im, er[l].mul_add(s.re, acc_re[l]));
            acc_im[l] = ei[l].mul_add(d.re, er[l].mul_add(s.im, acc_im[l]));
        }
    }
    out_re[r0..r0 + R].copy_from_slice(&acc_re);
    out_im[r0..r0 + R].copy_from_slice(&acc_im);
}

#[inline(always)]
fn radiate_body(re: &[f64], im: &[f64], x: &[C64; LEAF_PIXELS], out: &mut [f64]) {
    let mut sums = [C64::ZERO; PAIRS];
    let mut diffs = [C64::ZERO; PAIRS];
    for k in 0..PAIRS {
        sums[k] = x[k] + x[LEAF_PIXELS - 1 - k];
        diffs[k] = x[k] - x[LEAF_PIXELS - 1 - k];
    }
    let q = out.len() / 2;
    let (out_re, out_im) = out.split_at_mut(q);
    let mut r0 = 0;
    while r0 + 16 <= q {
        radiate_block::<16>(re, im, r0, &sums, &diffs, out_re, out_im);
        r0 += 16;
    }
    if r0 + 8 <= q {
        radiate_block::<8>(re, im, r0, &sums, &diffs, out_re, out_im);
        r0 += 8;
    }
    if r0 + 4 <= q {
        radiate_block::<4>(re, im, r0, &sums, &diffs, out_re, out_im);
        r0 += 4;
    }
    while r0 < q {
        radiate_block::<1>(re, im, r0, &sums, &diffs, out_re, out_im);
        r0 += 1;
    }
}

/// Pairs per block of [`receive_body`]: four sums of that many lanes stay in
/// registers across the samples.
const RECEIVE_BLOCK: usize = 16;

/// The sums over the samples of `e.re g.re`, `e.im g.im`, `e.re g.im` and
/// `e.im g.re`, one per pair.
#[inline(always)]
fn receive_sums(re: &[f64], im: &[f64], g_re: &[f64], g_im: &[f64]) -> [[f64; PAIRS]; 4] {
    let mut sums = [[0.0; PAIRS]; 4];
    for k0 in (0..PAIRS).step_by(RECEIVE_BLOCK) {
        let mut acc = [[0.0; RECEIVE_BLOCK]; 4];
        for (r, (gr, gi)) in g_re.iter().zip(g_im).enumerate() {
            let at = r * PAIRS + k0;
            let er: &[f64; RECEIVE_BLOCK] = re[at..][..RECEIVE_BLOCK].try_into().expect("block");
            let ei: &[f64; RECEIVE_BLOCK] = im[at..][..RECEIVE_BLOCK].try_into().expect("block");
            for l in 0..RECEIVE_BLOCK {
                acc[0][l] = er[l].mul_add(*gr, acc[0][l]);
                acc[1][l] = ei[l].mul_add(*gi, acc[1][l]);
                acc[2][l] = er[l].mul_add(*gi, acc[2][l]);
                acc[3][l] = ei[l].mul_add(*gr, acc[3][l]);
            }
        }
        for (sum, acc) in sums.iter_mut().zip(&acc) {
            sum[k0..k0 + RECEIVE_BLOCK].copy_from_slice(acc);
        }
    }
    sums
}

#[inline(always)]
fn receive_body(re: &[f64], im: &[f64], w: C64, pattern: &[f64], out: &mut [C64; LEAF_PIXELS]) {
    let (g_re, g_im) = pattern.split_at(pattern.len() / 2);
    let [rr, ii, ri, ir] = receive_sums(re, im, g_re, g_im);
    for k in 0..PAIRS {
        // conj(e) g for pixel k, e g for its mirror image
        out[k] = c64(rr[k] + ii[k], ri[k] - ir[k]) * w;
        out[LEAF_PIXELS - 1 - k] = c64(rr[k] - ii[k], ri[k] + ir[k]) * w;
    }
}

/// The multipole expansion shared by all leaves.
pub struct MultipoleExpansion {
    /// Planes of the first 32 columns of the `q x 64` expansion matrix,
    /// transposed: `[k * q + r]`.
    re: Vec<f64>,
    im: Vec<f64>,
}

impl MultipoleExpansion {
    /// Transposes the first 32 columns of the leaf expansion matrix
    /// (`q x 64`) into planes.
    ///
    /// # Panics
    ///
    /// If the other 32 columns are not their mirrored conjugates,
    /// `E[r, 63 - k] == conj(E[r, k])` bit for bit.
    pub fn new(expansion: &Matrix) -> Self {
        assert_conjugate_symmetric(expansion);
        let q = expansion.rows();
        let mut re = Vec::with_capacity(q * PAIRS);
        let mut im = Vec::with_capacity(q * PAIRS);
        for k in 0..PAIRS {
            for r in 0..q {
                re.push(expansion.at(r, k).re);
                im.push(expansion.at(r, k).im);
            }
        }
        MultipoleExpansion { re, im }
    }

    /// Pattern samples per leaf.
    pub fn q(&self) -> usize {
        self.re.len() / PAIRS
    }

    /// Entry `E[r, k]`: sample `r` of the pattern radiated by pixel `k`.
    pub fn at(&self, r: usize, k: usize) -> C64 {
        let stored = |k: usize| c64(self.re[k * self.q() + r], self.im[k * self.q() + r]);
        if k < PAIRS {
            stored(k)
        } else {
            stored(LEAF_PIXELS - 1 - k).conj()
        }
    }

    /// `out[r] = sum_k E[r, k] x[k]` for one leaf's 64 pixels, `out` being
    /// one pattern slot: `q` re samples, then `q` im samples.
    pub fn radiate(&self, x: &[C64], out: &mut [f64]) {
        assert_eq!(out.len() * PAIRS, 2 * self.re.len());
        let x: &[C64; LEAF_PIXELS] = x.try_into().expect("one leaf of pixels");
        let (re, im) = (self.re.as_slice(), self.im.as_slice());
        dispatch!(radiate_body(re: &[f64], im: &[f64], x: &[C64; LEAF_PIXELS], out: &mut [f64]));
    }
}

/// The local expansion shared by all leaves.
pub struct LocalExpansion {
    /// Planes of the first 32 columns of the `q x 64` multipole expansion
    /// matrix, row-major: `[r * 32 + k]`.
    re: Vec<f64>,
    im: Vec<f64>,
    /// `coupling / q`: the kernel constant times the quadrature weight.
    weight: C64,
}

impl LocalExpansion {
    /// Splits the first 32 columns of the leaf expansion matrix (`q x 64`)
    /// into planes.
    ///
    /// # Panics
    ///
    /// If the other 32 columns are not their mirrored conjugates,
    /// `E[r, 63 - k] == conj(E[r, k])` bit for bit.
    pub fn new(expansion: &Matrix, coupling: C64) -> Self {
        assert_conjugate_symmetric(expansion);
        let rows = expansion.as_slice().chunks_exact(LEAF_PIXELS);
        let kept = rows.flat_map(|row| &row[..PAIRS]);
        LocalExpansion {
            re: kept.clone().map(|v| v.re).collect(),
            im: kept.map(|v| v.im).collect(),
            weight: coupling * (1.0 / expansion.rows() as f64),
        }
    }

    /// `out[j] = coupling * (1/Q) sum_q conj(E[q, j]) pattern[q]` for one
    /// leaf's pattern slot (`q` re samples, then `q` im samples) and 64
    /// pixels.
    pub fn receive(&self, pattern: &[f64], out: &mut [C64]) {
        assert_eq!(pattern.len() * PAIRS, 2 * self.re.len());
        let out: &mut [C64; LEAF_PIXELS] = out.try_into().expect("one leaf of pixels");
        let (re, im, w) = (self.re.as_slice(), self.im.as_slice(), self.weight);
        dispatch!(receive_body(
            re: &[f64],
            im: &[f64],
            w: C64,
            pattern: &[f64],
            out: &mut [C64; LEAF_PIXELS],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::vecops::rel_diff;

    fn random(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    /// A random `q x 64` matrix with `E[r, 63 - k] == conj(E[r, k])`.
    fn symmetric(q: usize, seed: u64) -> Matrix {
        let half = random(q * PAIRS, seed);
        Matrix::from_fn(q, LEAF_PIXELS, |r, k| {
            if k < PAIRS {
                half[r * PAIRS + k]
            } else {
                half[r * PAIRS + LEAF_PIXELS - 1 - k].conj()
            }
        })
    }

    /// A pattern as one slot: the re plane, then the im plane.
    fn slot(pattern: &[C64]) -> Vec<f64> {
        let re = pattern.iter().map(|v| v.re);
        re.chain(pattern.iter().map(|v| v.im)).collect()
    }

    #[test]
    fn radiate_matches_the_matvec_and_is_its_portable_body() {
        for q in [33, 41, 52] {
            let expansion = symmetric(q, 4);
            let multipole = MultipoleExpansion::new(&expansion);
            assert_eq!(multipole.q(), q);
            for k in [5, 58] {
                assert_eq!(multipole.at(q - 2, k), expansion.at(q - 2, k));
            }
            let x = random(LEAF_PIXELS, 5);

            let mut want = vec![C64::ZERO; q];
            expansion.matvec(&x, &mut want);
            let mut got = slot(&random(q, 6)); // overwritten, not accumulated
            multipole.radiate(&x, &mut got);
            let (got_re, got_im) = got.split_at(q);
            let pattern: Vec<C64> = got_re
                .iter()
                .zip(got_im)
                .map(|(&a, &b)| c64(a, b))
                .collect();
            let err = rel_diff(&pattern, &want);
            assert!(err <= 1e-14, "q = {q}: {err:e}");

            let mut portable = vec![1.0; 2 * q];
            let leaf = x.as_slice().try_into().unwrap();
            radiate_body(&multipole.re, &multipole.im, leaf, &mut portable);
            assert_eq!(got, portable, "q = {q}");
        }
    }

    #[test]
    fn receive_matches_the_adjoint_sweep_and_is_its_portable_body() {
        for q in [33, 41, 52] {
            let expansion = symmetric(q, 1);
            let coupling = c64(0.3, -0.7);
            let local = LocalExpansion::new(&expansion, coupling);
            let pattern = random(q, 2);

            let mut want = vec![C64::ZERO; LEAF_PIXELS];
            expansion.matvec_adjoint_acc(&pattern, &mut want);
            for v in want.iter_mut() {
                *v *= coupling * (1.0 / q as f64);
            }
            let mut got = random(LEAF_PIXELS, 3); // overwritten, not accumulated
            local.receive(&slot(&pattern), &mut got);
            let err = rel_diff(&got, &want);
            assert!(err <= 1e-14, "q = {q}: {err:e}");

            let mut portable = [C64::ZERO; LEAF_PIXELS];
            let planes = slot(&pattern);
            receive_body(&local.re, &local.im, local.weight, &planes, &mut portable);
            assert_eq!(got, portable, "q = {q}");
        }
    }

    #[test]
    #[should_panic(expected = "E[7, 43] = ")]
    fn a_matrix_without_the_symmetry_is_refused_with_the_offending_entry() {
        let mut expansion = symmetric(33, 9);
        let mirrored = expansion.at(7, 43);
        *expansion.at_mut(7, 43) = c64(mirrored.re, mirrored.im + f64::EPSILON);
        MultipoleExpansion::new(&expansion);
    }
}

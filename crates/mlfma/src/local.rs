//! The two dense leaf operators (Table I's first and last far-field rows),
//! both over split re/im planes: the multipole expansion, a leaf's 64 pixel
//! sources to its outgoing far-field pattern, and the local expansion, its
//! incoming pattern back to the 64 pixel fields (the quadrature-weighted
//! adjoint of the multipole expansion).
//!
//! Each keeps the `q x 64` matrix in the orientation that makes its output
//! the contiguous lane dimension: [`MultipoleExpansion`] pixel-major
//! (`[k][r]`), so one broadcast pixel updates a register-sized block of the
//! `q` samples; [`LocalExpansion`] sample-major (`[r][k]`), so one pattern
//! sample updates the 64 pixels. Either way the loop is plain elementwise
//! arithmetic the compiler vectorises, with as many independent accumulators
//! as there are lanes in the block, where an interleaved-complex sweep
//! spends its time shuffling (and a one-column `Matrix::matvec` waits on a
//! single accumulator chain). The expression per output element is exactly
//! `E[r, k].mul_add(x[k], y[r])` in `k` order, resp.
//! `conj(E[r, k]).mul_add(g[r], y[k])` in `r` order then one product with
//! the weight, and nothing contracts to fused multiply-add, so the results
//! are bit-identical to `Matrix::matvec` and to `Matrix::matvec_adjoint_acc`
//! followed by the scaling, and the portable and the AVX2-compiled instance
//! agree bit for bit.

use ffw_geometry::LEAF_PIXELS;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{c64, C64};

/// Samples `r0..r0 + R` of one leaf's pattern: the accumulators stay in
/// registers across the 64 pixels.
#[inline(always)]
fn radiate_block<const R: usize>(
    re: &[f64],
    im: &[f64],
    r0: usize,
    x: &[C64; LEAF_PIXELS],
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let q = out_re.len();
    let mut acc_re = [0.0; R];
    let mut acc_im = [0.0; R];
    for (k, v) in x.iter().enumerate() {
        let er: &[f64; R] = re[k * q + r0..][..R].try_into().expect("R samples");
        let ei: &[f64; R] = im[k * q + r0..][..R].try_into().expect("R samples");
        for l in 0..R {
            acc_re[l] += er[l] * v.re - ei[l] * v.im;
            acc_im[l] += er[l] * v.im + ei[l] * v.re;
        }
    }
    out_re[r0..r0 + R].copy_from_slice(&acc_re);
    out_im[r0..r0 + R].copy_from_slice(&acc_im);
}

#[inline(always)]
fn radiate_body(re: &[f64], im: &[f64], x: &[C64; LEAF_PIXELS], out: &mut [f64]) {
    let q = out.len() / 2;
    let (out_re, out_im) = out.split_at_mut(q);
    let mut r0 = 0;
    while r0 + 16 <= q {
        radiate_block::<16>(re, im, r0, x, out_re, out_im);
        r0 += 16;
    }
    if r0 + 8 <= q {
        radiate_block::<8>(re, im, r0, x, out_re, out_im);
        r0 += 8;
    }
    if r0 + 4 <= q {
        radiate_block::<4>(re, im, r0, x, out_re, out_im);
        r0 += 4;
    }
    while r0 < q {
        radiate_block::<1>(re, im, r0, x, out_re, out_im);
        r0 += 1;
    }
}

#[inline(always)]
fn receive_body(re: &[f64], im: &[f64], w: C64, pattern: &[f64], out: &mut [C64; LEAF_PIXELS]) {
    let (g_re, g_im) = pattern.split_at(pattern.len() / 2);
    let mut acc_re = [0.0; LEAF_PIXELS];
    let mut acc_im = [0.0; LEAF_PIXELS];
    let rows = re
        .chunks_exact(LEAF_PIXELS)
        .zip(im.chunks_exact(LEAF_PIXELS));
    for ((gr, gi), (er, ei)) in g_re.iter().zip(g_im).zip(rows) {
        for j in 0..LEAF_PIXELS {
            acc_re[j] += er[j] * gr + ei[j] * gi;
            acc_im[j] += er[j] * gi - ei[j] * gr;
        }
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = c64(acc_re[j], acc_im[j]) * w;
    }
}

// Compiled out under Miri: the interpreter has no cpuid, and the portable
// instances are the bit-identical reference anyway.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (runtime-detected at the
// single call site); the body is the safe portable code, recompiled.
unsafe fn radiate_avx2(re: &[f64], im: &[f64], x: &[C64; LEAF_PIXELS], out: &mut [f64]) {
    radiate_body(re, im, x, out);
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (runtime-detected at the
// single call site); the body is the safe portable code, recompiled.
unsafe fn receive_avx2(
    re: &[f64],
    im: &[f64],
    w: C64,
    pattern: &[f64],
    out: &mut [C64; LEAF_PIXELS],
) {
    receive_body(re, im, w, pattern, out);
}

/// The multipole expansion shared by all leaves.
pub struct MultipoleExpansion {
    /// Planes of the transposed `q x 64` expansion matrix: `[k * q + r]`.
    re: Vec<f64>,
    im: Vec<f64>,
}

impl MultipoleExpansion {
    /// Transposes the leaf expansion matrix (`q x 64`) into planes.
    pub fn new(expansion: &Matrix) -> Self {
        assert_eq!(expansion.cols(), LEAF_PIXELS);
        let q = expansion.rows();
        let mut re = Vec::with_capacity(q * LEAF_PIXELS);
        let mut im = Vec::with_capacity(q * LEAF_PIXELS);
        for k in 0..LEAF_PIXELS {
            for r in 0..q {
                re.push(expansion.at(r, k).re);
                im.push(expansion.at(r, k).im);
            }
        }
        MultipoleExpansion { re, im }
    }

    /// Pattern samples per leaf.
    pub fn q(&self) -> usize {
        self.re.len() / LEAF_PIXELS
    }

    /// Entry `E[r, k]`: sample `r` of the pattern radiated by pixel `k`.
    pub fn at(&self, r: usize, k: usize) -> C64 {
        c64(self.re[k * self.q() + r], self.im[k * self.q() + r])
    }

    /// `out[r] = sum_k E[r, k] x[k]` for one leaf's 64 pixels, `out` being
    /// one pattern slot: `q` re samples, then `q` im samples.
    pub fn radiate(&self, x: &[C64], out: &mut [f64]) {
        assert_eq!(out.len() * LEAF_PIXELS, 2 * self.re.len());
        let x: &[C64; LEAF_PIXELS] = x.try_into().expect("one leaf of pixels");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { radiate_avx2(&self.re, &self.im, x, out) };
            return;
        }
        radiate_body(&self.re, &self.im, x, out);
    }
}

/// The local expansion shared by all leaves.
pub struct LocalExpansion {
    /// Planes of the `q x 64` multipole expansion matrix, row-major.
    re: Vec<f64>,
    im: Vec<f64>,
    /// `coupling / q`: the kernel constant times the quadrature weight.
    weight: C64,
}

impl LocalExpansion {
    /// Splits the leaf expansion matrix (`q x 64`) into planes.
    pub fn new(expansion: &Matrix, coupling: C64) -> Self {
        assert_eq!(expansion.cols(), LEAF_PIXELS);
        LocalExpansion {
            re: expansion.as_slice().iter().map(|v| v.re).collect(),
            im: expansion.as_slice().iter().map(|v| v.im).collect(),
            weight: coupling * (1.0 / expansion.rows() as f64),
        }
    }

    /// `out[j] = coupling * (1/Q) sum_q conj(E[q, j]) pattern[q]` for one
    /// leaf's pattern slot (`q` re samples, then `q` im samples) and 64
    /// pixels.
    pub fn receive(&self, pattern: &[f64], out: &mut [C64]) {
        assert_eq!(pattern.len() * LEAF_PIXELS, 2 * self.re.len());
        let out: &mut [C64; LEAF_PIXELS] = out.try_into().expect("one leaf of pixels");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { receive_avx2(&self.re, &self.im, self.weight, pattern, out) };
            return;
        }
        receive_body(&self.re, &self.im, self.weight, pattern, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A pattern as one slot: the re plane, then the im plane.
    fn slot(pattern: &[C64]) -> Vec<f64> {
        let re = pattern.iter().map(|v| v.re);
        re.chain(pattern.iter().map(|v| v.im)).collect()
    }

    #[test]
    fn radiate_is_bit_identical_to_the_matvec_on_both_paths() {
        for q in [33, 41, 52] {
            let expansion = Matrix::from_vec(q, LEAF_PIXELS, random(q * LEAF_PIXELS, 4));
            let multipole = MultipoleExpansion::new(&expansion);
            assert_eq!(multipole.q(), q);
            assert_eq!(multipole.at(q - 2, 5), expansion.at(q - 2, 5));
            let x = random(LEAF_PIXELS, 5);

            let mut want = vec![C64::ZERO; q];
            expansion.matvec(&x, &mut want);
            let mut got = slot(&random(q, 6)); // overwritten, not accumulated
            multipole.radiate(&x, &mut got);
            assert_eq!(got, slot(&want), "q = {q}");

            let mut portable = vec![1.0; 2 * q];
            let leaf = x.as_slice().try_into().unwrap();
            radiate_body(&multipole.re, &multipole.im, leaf, &mut portable);
            assert_eq!(got, portable, "q = {q}");
        }
    }

    #[test]
    fn receive_is_bit_identical_to_the_adjoint_sweep_on_both_paths() {
        let q = 41;
        let expansion = Matrix::from_vec(q, LEAF_PIXELS, random(q * LEAF_PIXELS, 1));
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
        assert_eq!(got, want);

        let mut portable = [C64::ZERO; LEAF_PIXELS];
        let planes = slot(&pattern);
        receive_body(&local.re, &local.im, local.weight, &planes, &mut portable);
        assert_eq!(got, portable);
    }
}

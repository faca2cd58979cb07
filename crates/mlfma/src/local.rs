//! The leaf local expansion (Table I's last row): a leaf's incoming
//! far-field pattern back to its 64 pixel fields, the quadrature-weighted
//! adjoint of the multipole expansion.
//!
//! The matrix is kept as split re/im planes so that one pattern sample
//! updates the 64 pixels as contiguous lanes — plain elementwise arithmetic
//! the compiler vectorises, where the interleaved-complex adjoint sweep
//! spends its time shuffling. The expression per pixel is exactly
//! `conj(E[q, j]).mul_add(g[q], y[j])` in `q` order, then one product with
//! the weight, and nothing contracts to fused multiply-add, so the result is
//! bit-identical to `Matrix::matvec_adjoint_acc` followed by the scaling,
//! and the portable and the AVX2-compiled instance agree bit for bit.

use ffw_geometry::LEAF_PIXELS;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{c64, C64};

#[inline(always)]
fn receive_body(re: &[f64], im: &[f64], w: C64, pattern: &[C64], out: &mut [C64; LEAF_PIXELS]) {
    let mut acc_re = [0.0; LEAF_PIXELS];
    let mut acc_im = [0.0; LEAF_PIXELS];
    let rows = re
        .chunks_exact(LEAF_PIXELS)
        .zip(im.chunks_exact(LEAF_PIXELS));
    for (g, (er, ei)) in pattern.iter().zip(rows) {
        for j in 0..LEAF_PIXELS {
            acc_re[j] += er[j] * g.re + ei[j] * g.im;
            acc_im[j] += er[j] * g.im - ei[j] * g.re;
        }
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = c64(acc_re[j], acc_im[j]) * w;
    }
}

// Compiled out under Miri: the interpreter has no cpuid, and the portable
// instance is the bit-identical reference anyway.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
// SAFETY: caller must ensure AVX2 is available (runtime-detected at the
// single call site); the body is the safe portable code, recompiled.
unsafe fn receive_avx2(
    re: &[f64],
    im: &[f64],
    w: C64,
    pattern: &[C64],
    out: &mut [C64; LEAF_PIXELS],
) {
    receive_body(re, im, w, pattern, out);
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
    /// leaf's `q` pattern samples and 64 pixels.
    pub fn receive(&self, pattern: &[C64], out: &mut [C64]) {
        assert_eq!(pattern.len() * LEAF_PIXELS, self.re.len());
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
        local.receive(&pattern, &mut got);
        assert_eq!(got, want);

        let mut portable = [C64::ZERO; LEAF_PIXELS];
        receive_body(&local.re, &local.im, local.weight, &pattern, &mut portable);
        assert_eq!(got, portable);
    }
}

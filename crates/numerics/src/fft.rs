//! Complex FFT of arbitrary length: iterative radix-2 for powers of two and
//! Bluestein's chirp-z algorithm for everything else.
//!
//! MLFMA samples far-field patterns at `Q = 2L + 1` angles (odd), so the
//! arbitrary-length path is exercised constantly when the exact spectral
//! interpolation option is enabled; the band-diagonal Lagrange interpolators
//! (the paper's choice) are validated against this path.

use crate::complex::C64;

/// A reusable FFT plan for a fixed transform length.
///
/// Forward transform convention: `X[k] = sum_n x[n] e^{-2 pi i k n / N}`;
/// the inverse divides by `N` so `ifft(fft(x)) == x`.
pub struct Fft {
    n: usize,
    kind: Kind,
}

enum Kind {
    /// Radix-2: bit-reversal permutation table and per-stage twiddles.
    Radix2 { rev: Vec<u32>, twiddles: Vec<C64> },
    /// Bluestein: chirp a_n = e^{-i pi n^2 / N}, and FFT of the (padded) kernel.
    Bluestein {
        chirp: Vec<C64>,
        kernel_fft: Vec<C64>,
        inner: Box<Fft>,
    },
}

impl Fft {
    /// Plans a transform of length `n >= 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        if n.is_power_of_two() {
            let bits = n.trailing_zeros();
            let rev = (0..n as u32)
                .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
                .collect::<Vec<_>>();
            let rev = if n == 1 { vec![0] } else { rev };
            // Twiddles for the largest stage; sub-stages stride through them.
            let twiddles = (0..n / 2)
                .map(|k| C64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            Fft {
                n,
                kind: Kind::Radix2 { rev, twiddles },
            }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let inner = Box::new(Fft::new(m));
            // chirp[j] = e^{-i pi j^2 / n}; use j^2 mod 2n to keep the phase exact
            // for large j.
            let chirp: Vec<C64> = (0..n)
                .map(|j| {
                    let j2 = (j * j) % (2 * n);
                    C64::cis(-std::f64::consts::PI * j2 as f64 / n as f64)
                })
                .collect();
            let mut kernel = vec![C64::ZERO; m];
            kernel[0] = chirp[0].conj();
            for j in 1..n {
                let v = chirp[j].conj();
                kernel[j] = v;
                kernel[m - j] = v;
            }
            inner.forward(&mut kernel);
            Fft {
                n,
                kind: Kind::Bluestein {
                    chirp,
                    kernel_fft: kernel,
                    inner,
                },
            }
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 plan (never constructible).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT.
    pub fn forward(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "fft length mismatch");
        match &self.kind {
            Kind::Radix2 { rev, twiddles } => radix2(data, rev, twiddles, false),
            Kind::Bluestein {
                chirp,
                kernel_fft,
                inner,
            } => bluestein(data, chirp, kernel_fft, inner),
        }
    }

    /// In-place inverse DFT (normalized by 1/N).
    pub fn inverse(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "fft length mismatch");
        // inverse via conjugation: ifft(x) = conj(fft(conj(x))) / N
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.forward(data);
        let s = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.conj() * s;
        }
    }
}

fn radix2(data: &mut [C64], rev: &[u32], twiddles: &[C64], _inv: bool) {
    let n = data.len();
    if n == 1 {
        return;
    }
    for (i, &r) in rev.iter().enumerate() {
        let j = r as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = n / len;
        let mut base = 0;
        while base < n {
            for k in 0..half {
                let w = twiddles[k * stride];
                let u = data[base + k];
                let t = data[base + k + half] * w;
                data[base + k] = u + t;
                data[base + k + half] = u - t;
            }
            base += len;
        }
        len <<= 1;
    }
}

fn bluestein(data: &mut [C64], chirp: &[C64], kernel_fft: &[C64], inner: &Fft) {
    let n = data.len();
    let m = inner.len();
    let mut work = vec![C64::ZERO; m];
    for j in 0..n {
        work[j] = data[j] * chirp[j];
    }
    inner.forward(&mut work);
    for (w, k) in work.iter_mut().zip(kernel_fft.iter()) {
        *w *= *k;
    }
    inner.inverse(&mut work);
    for j in 0..n {
        data[j] = work[j] * chirp[j];
    }
}

/// Convenience: out-of-place forward DFT (plans internally; prefer [`Fft`] in
/// hot paths).
pub fn fft(x: &[C64]) -> Vec<C64> {
    let mut v = x.to_vec();
    Fft::new(x.len()).forward(&mut v);
    v
}

/// Convenience: out-of-place inverse DFT.
pub fn ifft(x: &[C64]) -> Vec<C64> {
    let mut v = x.to_vec();
    Fft::new(x.len()).inverse(&mut v);
    v
}

/// Naive O(N^2) DFT used as a test oracle.
pub fn dft_naive(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = C64::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64;
                acc += v * C64::cis(ang);
            }
            acc
        })
        .collect()
}

/// Resamples a periodic band-limited signal from `x.len()` to `q_out` samples
/// by zero-padding (upsampling) or truncating (downsampling) its spectrum.
///
/// This is the *exact* interpolation/anterpolation used to validate the
/// band-diagonal Lagrange operators of the MLFMA (paper Table I). Spectral
/// bins are interpreted as centered: frequencies in `[-floor((q-1)/2), ...]`.
pub fn resample_periodic(x: &[C64], q_out: usize) -> Vec<C64> {
    let q_in = x.len();
    if q_in == q_out {
        return x.to_vec();
    }
    let mut spec = fft(x);
    let mut out_spec = vec![C64::ZERO; q_out];
    let half_keep = (q_in.min(q_out) - 1) / 2;
    // DC and positive frequencies
    out_spec[..=half_keep].copy_from_slice(&spec[..=half_keep]);
    // negative frequencies
    for k in 1..=half_keep {
        out_spec[q_out - k] = spec[q_in - k];
    }
    // If both sizes are even and equal bins exist at Nyquist, split is ambiguous;
    // MLFMA always uses odd Q so this path stays exact.
    if q_in.min(q_out).is_multiple_of(2) {
        let nyq = q_in.min(q_out) / 2;
        if q_out > q_in {
            out_spec[nyq] = spec[nyq].scale(0.5);
            out_spec[q_out - nyq] = spec[nyq].scale(0.5);
        } else {
            out_spec[nyq] = spec[nyq] + spec[q_in - nyq];
            out_spec[nyq] = out_spec[nyq].scale(0.5);
        }
    }
    spec.clear();
    let mut out = out_spec;
    Fft::new(q_out).inverse(&mut out);
    let s = q_out as f64 / q_in as f64;
    for v in out.iter_mut() {
        *v = v.scale(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64((0.3 * t).sin() + 0.2, (0.7 * t).cos() - 0.1)
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let x = signal(n);
            let err = max_err(&fft(&x), &dft_naive(&x));
            assert!(err < 1e-10 * n as f64, "n={n} err={err:e}");
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [3usize, 5, 7, 9, 15, 37, 101, 120] {
            let x = signal(n);
            let err = max_err(&fft(&x), &dft_naive(&x));
            assert!(err < 1e-9 * n as f64, "n={n} err={err:e}");
        }
    }

    #[test]
    fn roundtrip() {
        for n in [1usize, 2, 17, 64, 99, 255, 256, 257] {
            let x = signal(n);
            let y = ifft(&fft(&x));
            assert!(max_err(&x, &y) < 1e-11 * n as f64, "n={n}");
        }
    }

    #[test]
    fn parseval() {
        let x = signal(241);
        let y = fft(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 241.0;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn impulse_is_flat() {
        let mut x = vec![C64::ZERO; 16];
        x[0] = C64::ONE;
        let y = fft(&x);
        assert!(y.iter().all(|v| (*v - C64::ONE).abs() < 1e-12));
    }

    #[test]
    fn resample_band_limited_is_exact() {
        // Band-limited signal with |freq| <= 5, sampled at q1 = 13 and q2 = 31.
        let modes: Vec<(i64, C64)> = vec![
            (0, c64(1.0, 0.3)),
            (1, c64(0.5, -0.2)),
            (-3, c64(-0.7, 0.1)),
            (5, c64(0.2, 0.9)),
            (-5, c64(0.1, -0.4)),
        ];
        let eval = |q: usize| -> Vec<C64> {
            (0..q)
                .map(|j| {
                    let a = 2.0 * std::f64::consts::PI * j as f64 / q as f64;
                    modes
                        .iter()
                        .map(|&(m, cm)| cm * C64::cis(m as f64 * a))
                        .sum()
                })
                .collect()
        };
        let coarse = eval(13);
        let fine_expect = eval(31);
        let up = resample_periodic(&coarse, 31);
        assert!(max_err(&up, &fine_expect) < 1e-12, "upsample exact");
        // Downsampling a band-limited signal back is also exact.
        let down = resample_periodic(&fine_expect, 13);
        assert!(max_err(&down, &coarse) < 1e-12, "downsample exact");
    }

    #[test]
    fn linearity() {
        let x = signal(50);
        let y: Vec<C64> = signal(50).iter().map(|v| *v * c64(0.3, 0.7)).collect();
        let sum: Vec<C64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        let combo: Vec<C64> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
        assert!(max_err(&fsum, &combo) < 1e-10);
    }
}

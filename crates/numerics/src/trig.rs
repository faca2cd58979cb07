//! Sine and cosine in lanes, without libm.
//!
//! Every bulk phase of the stack — the plane waves of the MLFMA plan, the
//! phase of each Hankel function behind `GR`, the incident fields and the
//! near field — is one `sin_cos` of one argument. libm evaluates one call at
//! a time behind a branchy range reduction; here the same function is a
//! straight-line lane function, run over slices by [`cis_into`] through the
//! `avx2,fma` instance of [`crate::dispatch!`]; a single phasor is that body
//! at width 1, and the Hankel kernel of [`crate::bessel`] inlines the same
//! lane function: one implementation.
//!
//! Method:
//!
//! * **Reduction.** `n = round(x · 2/π)` (ties to even, by adding and
//!   subtracting `1.5 · 2^52`), then `x − n·π/2` as a double-double
//!   `r + tail` with `π/2 = PIO2_HI + PIO2_LO` (two-part Cody–Waite). The
//!   first step `x − n·PIO2_HI` is one FMA and exact: once `n ≠ 0`
//!   (`|x| > π/4`), `x` and `n·PIO2_HI` are both multiples of `2^-53` and
//!   their difference is below 1 in magnitude. The second step
//!   `r = fma(−n, PIO2_LO, hi)` rounds once, and
//!   `tail = fma(−n, PIO2_LO, hi − r)` keeps what it rounded away (`hi − r`
//!   is exact by Sterbenz's lemma).
//! * **Kernels** on `[−π/4, π/4]`: `sin r = r + r³ S(r²)` (`S` of degree 6)
//!   and `cos r = 1 − r²/2 + r⁴ C(r²)` (`C` of degree 5), Chebyshev fits
//!   (`mpmath.chebyfit`, 50 digits) with absolute error below `2e-20` and
//!   `2e-21`, evaluated in fdlibm's arrangement that folds the tail in and
//!   adds the leading term last.
//! * **Quadrant** `n mod 4`, again by the rounding shift, then sign and swap
//!   by comparisons: no branch, no integer conversion, so the body
//!   vectorises.
//!
//! **Accuracy contract.** For `|x| ≤` [`SIN_COS_MAX_ARG`] `= 2^20` the
//! reduction is exact but for the representation error of the two-part
//! constant, `|n| · 1.5e-33 ≤ 1.0e-27` absolute, and for the double-double
//! rounding of the tail (`2^-104 |r|`). The results are then faithful —
//! within one ulp of the exact value, so within one ulp of a correctly
//! rounded libm — except within `~2e-11 · |x| / 2^20` of a multiple of
//! `π/2`, where `1e-27` is no longer small against an ulp of the reduced
//! argument; there the absolute error stays below `1e-27`. Past the bound
//! the absolute error grows like `|x| · 1e-33` until `|x · 2/π|` reaches
//! `2^51`, where the rounding shift stops rounding; nothing in the stack
//! comes near either (`k r` at 1024² pixels is about `2.4e3`).
//!
//! The body uses `+ − ×`, `mul_add` and comparisons only, so its portable
//! form and its instance agree bit for bit, and it is odd in `x` for the
//! sine and even for the cosine bit for bit (every operation rounds to
//! nearest, which commutes with negation), as the leaf expansions of the
//! MLFMA plan require.

use crate::complex::{c64, C64};
use std::f64::consts::{FRAC_2_PI, FRAC_PI_2};

/// Largest `|x|` for which the sine and cosine keep their accuracy contract
/// (module docs): `2^20`.
pub const SIN_COS_MAX_ARG: f64 = 1_048_576.0;

/// `1.5 · 2^52`: adding and subtracting it rounds any `|t| < 2^51` to the
/// nearest integer, ties to even.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// `π/2` to double precision (the leading part).
const PIO2_HI: f64 = FRAC_PI_2;
/// `π/2 − PIO2_HI` to double precision; `1.5e-33` short of the exact value.
const PIO2_LO: f64 = 6.123_233_995_736_766e-17;

/// `(sin r − r) / r³` as a polynomial in `r²` on `[0, (π/4)²]`.
const SIN: [f64; 7] = [
    -0.166_666_666_666_666_66,
    0.008_333_333_333_333_331,
    -0.000_198_412_698_412_650_65,
    2.755_731_921_933_916_7e-6,
    -2.505_210_623_244_757_8e-8,
    1.605_853_161_898_614_7e-10,
    -7.586_697_117_706_918e-13,
];

/// `(cos r − 1 + r²/2) / r⁴` as a polynomial in `r²` on `[0, (π/4)²]`.
const COS: [f64; 6] = [
    0.041_666_666_666_666_664,
    -0.001_388_888_888_888_739_8,
    2.480_158_729_876_569e-5,
    -2.755_731_727_172_979_3e-7,
    2.087_614_626_840_32e-9,
    -1.138_263_242_552_171_7e-11,
];

/// `c[0] + c[1] z + c[2] z^2 + ...` by Estrin's scheme: adjacent
/// coefficients paired by one `mul_add` with `z`, the pairs paired with
/// `z^2`, and so on — `log2 D` steps deep instead of Horner's `D - 1`, so a
/// lone call waits on a short chain. The loops have constant trip counts
/// and unroll to straight-line code.
#[inline(always)]
pub(crate) fn estrin<const D: usize>(c: &[f64; D], z: f64) -> f64 {
    let mut terms = *c;
    let (mut len, mut power) = (D, z);
    while len > 1 {
        let half = len.div_ceil(2);
        for i in 0..len / 2 {
            terms[i] = terms[2 * i + 1].mul_add(power, terms[2 * i]);
        }
        if len % 2 == 1 {
            terms[half - 1] = terms[len - 1];
        }
        (len, power) = (half, power * power);
    }
    terms[0]
}

/// `sin(r + tail)` for `|r| ≤ π/4`, `|tail|` below half an ulp of `r`.
#[inline(always)]
fn sin_kernel(r: f64, tail: f64) -> f64 {
    let z = r * r;
    let v = z * r;
    let rest = estrin(&[SIN[1], SIN[2], SIN[3], SIN[4], SIN[5], SIN[6]], z);
    r - ((z * (0.5 * tail - v * rest) - tail) - v * SIN[0])
}

/// `cos(r + tail)` for `|r| ≤ π/4`, `|tail|` below half an ulp of `r`.
#[inline(always)]
fn cos_kernel(r: f64, tail: f64) -> f64 {
    let z = r * r;
    let rest = z * z * estrin(&COS, z);
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (rest - r * tail))
}

/// `(sin x, cos x)`: one lane of the body.
#[inline(always)]
pub(crate) fn sin_cos_lane(x: f64) -> (f64, f64) {
    let n = (x * FRAC_2_PI + ROUND) - ROUND;
    let hi = (-n).mul_add(PIO2_HI, x);
    let r = (-n).mul_add(PIO2_LO, hi);
    let tail = (-n).mul_add(PIO2_LO, hi - r);
    let (s, c) = (sin_kernel(r, tail), cos_kernel(r, tail));
    // n mod 4: n/4 − 3/8 lies 1/8 or 3/8 away from floor(n/4), never on a
    // tie, so the shift rounds it to floor(n/4).
    let quadrant = n - 4.0 * ((0.25 * n - 0.375 + ROUND) - ROUND);
    let odd = quadrant == 1.0 || quadrant == 3.0;
    let (sin, cos) = if odd { (c, s) } else { (s, c) };
    let sin = if quadrant >= 2.0 { -sin } else { sin };
    let cos = if quadrant == 1.0 || quadrant == 2.0 {
        -cos
    } else {
        cos
    };
    (sin, cos)
}

/// The kernel body: `out[i] = cos θ_i + i sin θ_i`.
#[inline(always)]
fn cis_body(theta: &[f64], out: &mut [C64]) {
    for (o, &t) in out.iter_mut().zip(theta) {
        let (s, c) = sin_cos_lane(t);
        *o = c64(c, s);
    }
}

/// `out[i] = e^{i θ_i}` for every angle, on the `avx2,fma` instance where
/// the CPU has one: each part within one ulp of a correctly rounded libm for
/// `|θ| ≤` [`SIN_COS_MAX_ARG`] (module docs).
pub fn cis_into(theta: &[f64], out: &mut [C64]) {
    assert_eq!(theta.len(), out.len(), "one phasor per angle");
    dispatch!(cis_body(theta: &[f64], out: &mut [C64]));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(sin x, cos x)`: [`cis_into`] at width 1.
    fn sin_cos(x: f64) -> (f64, f64) {
        let mut z = [C64::ZERO];
        cis_into(&[x], &mut z);
        (z[0].im, z[0].re)
    }

    /// The splitmix64 stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Distance in ulps between two finite doubles of one sign, or across
    /// zero counted through it.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// 10⁶ seeded arguments, half uniform on `[−2^20, 2^20]` and half
    /// log-uniform in magnitude from `2^-30` to `2^20` with a random sign.
    fn arguments(count: usize) -> Vec<f64> {
        let mut next = stream(0x5105);
        let unit = move |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
        (0..count)
            .map(|i| {
                let u = unit(next());
                let sign = if next() & 1 == 0 { 1.0 } else { -1.0 };
                if i % 2 == 0 {
                    (2.0 * u - 1.0) * SIN_COS_MAX_ARG
                } else {
                    sign * (2f64).powf(-30.0 + 50.0 * u)
                }
            })
            .collect()
    }

    #[test]
    fn within_one_ulp_of_std_up_to_the_bound() {
        let count = if cfg!(miri) { 64 } else { 1_000_000 };
        let xs = arguments(count);
        let mut phasors = vec![C64::ZERO; count];
        cis_into(&xs, &mut phasors);
        let (mut worst, mut off) = (0, 0);
        for (&x, z) in xs.iter().zip(&phasors) {
            let (s, c) = x.sin_cos();
            let err = ulps(z.im, s).max(ulps(z.re, c));
            assert!(err <= 1, "x = {x:e}: ({}, {}) vs ({s}, {c})", z.im, z.re);
            worst = worst.max(err);
            off += usize::from(err > 0);
        }
        println!("sin_cos: worst {worst} ulp over {count} arguments, {off} a ulp off");
        // Faithful against correctly rounded: 4.1% of the pairs differ in a
        // last bit. Without the reduction's tail it would be 20.7%.
        if !cfg!(miri) {
            assert!(off * 100 <= 6 * count, "{off} of {count} a ulp off");
        }
    }

    #[test]
    fn exact_points_and_signed_zero() {
        assert_eq!(sin_cos(0.0), (0.0, 1.0));
        assert!(sin_cos(-0.0).0.is_sign_negative());
        let (s, c) = sin_cos(FRAC_PI_2);
        assert_eq!(s, 1.0);
        assert!(c.abs() < 1e-16);
        let (s, c) = sin_cos(std::f64::consts::PI);
        assert!(s.abs() < 2e-16 && c == -1.0);
    }

    /// Sine odd and cosine even bit for bit, in all four quadrants and past
    /// the bound.
    #[test]
    fn sine_is_odd_and_cosine_even_bit_for_bit() {
        let count = if cfg!(miri) { 32 } else { 100_000 };
        let mut xs = arguments(count);
        xs.extend([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 1e7, 3e9]);
        for x in xs {
            let (s, c) = sin_cos(x);
            let (sn, cn) = sin_cos(-x);
            assert_eq!(sn.to_bits(), (-s).to_bits(), "x = {x}");
            assert_eq!(cn.to_bits(), c.to_bits(), "x = {x}");
        }
    }

    /// The portable body and the dispatched instance give the same bits at
    /// every width, remainder lanes included.
    #[test]
    fn body_and_instance_agree_at_every_width() {
        let xs = arguments(if cfg!(miri) { 37 } else { 4096 });
        for width in [1, 3, 4, 37] {
            for chunk in xs.chunks_exact(width).take(if cfg!(miri) { 1 } else { 64 }) {
                let (mut body, mut instance) = (vec![C64::ZERO; width], vec![C64::ZERO; width]);
                cis_body(chunk, &mut body);
                cis_into(chunk, &mut instance);
                assert_eq!(body, instance, "width {width}");
            }
        }
    }
}

//! Bessel functions of the first and second kind and Hankel functions of the
//! first kind, for real positive arguments and integer orders.
//!
//! These are the special functions the solver is built on:
//! the 2-D free-space Green's function is `(i/4) H0^(1)(k r)`, the
//! equivalent-disk pixel discretization needs `J1`/`H1`, and every diagonal
//! MLFMA translation operator is a sum of `H_m^(1)(k|X|)` terms.
//!
//! Implementation strategy (self-contained, no libm beyond `sqrt` and `ln`):
//! * `J0, J1, Y0, Y1` for `x <= 12`: ascending power series, ~1e-13
//!   absolute at the top of the range (their cancellation grows like
//!   `e^x / x`).
//! * For `x > 12`, one large-argument kernel: Hankel's modulus–phase form
//!   `H_nu(x) = sqrt(2/(pi x)) (P_nu(x) + i Q_nu(x)) e^{i chi}`,
//!   `chi = x - (2 nu + 1) pi/4`, with `P_nu` and `x Q_nu` polynomials of
//!   degree ten in `z = (12/x)^2` (Estrin's scheme, by `mul_add`) and the
//!   phase through the lane-wise [`crate::trig`] sine and cosine. The
//!   polynomials are Chebyshev fits on `z` in `[0, 1]` (`mpmath.chebyfit`,
//!   50 digits, against `mpmath.besselj` / `bessely`), with absolute error
//!   below `2e-19` for `P` and `1.5e-18` for `x Q` — far below an ulp
//!   everywhere above the cutoff. Hankel's series itself, truncated where
//!   its terms turn, cannot do that at `x = 12`: its smallest term there is
//!   ~1e-11. A fit in `1/x^2` behaves like that series at twice the
//!   argument. `chi` is `x` minus a rounded `pi/4` multiple, rounded once:
//!   that costs half an ulp of `x` of phase, which `x = k r` carried
//!   already.
//! * The kernel is a safe body over slices ([`hankel1_0_into`]) run through
//!   the `avx2,fma` instance of [`crate::dispatch!`]; it uses `+ - * /`,
//!   `mul_add`, `sqrt` and comparisons only, so the portable body and the
//!   instance agree bit for bit. The scalar `j0`, `y0`, `j1`, `y1`,
//!   `hankel1_0`, `hankel1_1` and the seeds of [`yn_array`] are that body at
//!   width 1: one implementation.
//! * `J_n` for a range of orders: Miller's downward recurrence with the
//!   `J0 + 2 sum J_{2k} = 1` normalization (stable for all `n`).
//! * `Y_n`: upward recurrence from `Y0, Y1` (stable because `Y_n` is the
//!   dominant solution).
//!
//! Accuracy contract above the cutoff (tested to `x = 1e4`; the phase keeps
//! its sine and cosine's to [`crate::trig::SIN_COS_MAX_ARG`]): `H0` and `H1`
//! within a few 1e-16 relative plus the half ulp of `x` that rounding `chi`
//! costs; the Wronskian `J1 Y0 - J0 Y1 = 2/(pi x)` to 1e-14 relative; `H0`
//! within 5e-15 of the optimal-truncation expansion it replaced for
//! `x >= 25`, where that expansion was exact to double precision, and
//! nowhere less accurate than it on `(12, 25]`, where it was not (4e-12
//! near 12). All far below the 1e-5 matvec error budget of the paper
//! (Section V-B).

use crate::complex::{c64, C64};
use crate::trig::{estrin, sin_cos_lane};
use std::f64::consts::{FRAC_2_PI, FRAC_PI_4};

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Arguments at or below this take the ascending series; above it, the
/// large-argument kernel.
const SERIES_CUTOFF: f64 = 12.0;

/// One order of the large-argument kernel: `P(x) = sum p[k] z^k` and
/// `x Q(x) = sum q[k] z^k` with `z = (12/x)^2`, and the phase offset
/// `(2 nu + 1) pi/4`.
struct ModulusPhase {
    p: [f64; 11],
    q: [f64; 11],
    phase: f64,
}

const ORDER_0: ModulusPhase = ModulusPhase {
    p: [
        1.0,
        -0.000_488_281_249_999_961_84,
        5.408_569_616_962_168e-6,
        -1.917_295_428_797_741_8e-7,
        1.412_607_613_201_915_9e-8,
        -1.775_833_312_501_370_3e-9,
        3.375_770_348_519_416e-10,
        -8.587_224_500_328_665e-11,
        2.400_333_356_218_988_7e-11,
        -5.536_923_961_844e-12,
        6.901_209_988_229_13e-13,
    ],
    q: [
        -0.125,
        0.000_508_626_302_082_995,
        -1.095_235_346_376_889_4e-5,
        5.786_122_257_968_705e-7,
        -5.669_949_924_523_003e-8,
        8.895_384_125_326_581e-9,
        -2.019_187_430_960_51e-9,
        5.877_028_956_986_805e-10,
        -1.795_835_921_956_405_4e-10,
        4.363_837_204_598_044_5e-11,
        -5.600_810_615_893_996_6e-12,
    ],
    phase: FRAC_PI_4,
};

const ORDER_1: ModulusPhase = ModulusPhase {
    p: [
        1.0,
        0.000_813_802_083_333_292_9,
        -6.953_875_222_161_630_6e-6,
        2.265_894_628_408_341_2e-7,
        -1.600_956_854_825_35e-8,
        1.962_811_912_511_843_7e-9,
        -3.670_284_181_142_57e-10,
        9.235_555_204_306_465e-11,
        -2.564_725_724_099_240_5e-11,
        5.895_015_145_393_334e-12,
        -7.333_488_026_672_218e-13,
    ],
    q: [
        0.375,
        -0.000_712_076_822_916_309_7,
        1.338_620_979_134_497_7e-5,
        -6.676_295_130_066_575e-7,
        6.337_014_331_619_873e-8,
        -9.742_931_239_751_421e-9,
        2.181_464_366_460_762_4e-9,
        -6.291_824_668_546_871e-10,
        1.912_122_717_125_155_2e-10,
        -4.632_514_380_692_966_5e-11,
        5.935_981_092_237_752e-12,
    ],
    phase: 3.0 * FRAC_PI_4,
};

/// `H_nu^(1)(x)` for `x > 12` (garbage below, never NaN-trapping): one lane
/// of the body.
#[inline(always)]
fn large_lane(x: f64, order: &ModulusPhase) -> C64 {
    let inv = 1.0 / x;
    let w = SERIES_CUTOFF * inv;
    let z = w * w;
    let p = estrin(&order.p, z);
    let q = estrin(&order.q, z) * inv;
    let amp = (FRAC_2_PI * inv).sqrt();
    let (sin, cos) = sin_cos_lane(x - order.phase);
    c64(amp * (p * cos - q * sin), amp * (p * sin + q * cos))
}

/// The kernel body: `out[i] = scale * H_nu^(1)(x[i])` by the large-argument
/// form, for every lane whatever its argument.
#[inline(always)]
fn large_body(x: &[f64], order: &ModulusPhase, scale: C64, out: &mut [C64]) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = scale * large_lane(x, order);
    }
}

fn large(x: &[f64], order: &ModulusPhase, scale: C64, out: &mut [C64]) {
    dispatch!(large_body(
        x: &[f64],
        order: &ModulusPhase,
        scale: C64,
        out: &mut [C64],
    ));
}

/// `H_nu^(1)(x)` for `x > 12`: the body at width 1.
fn large_scalar(x: f64, order: &ModulusPhase) -> C64 {
    let mut out = [C64::ZERO];
    large(&[x], order, C64::ONE, &mut out);
    out[0]
}

/// `out[i] = scale * H_0^(1)(x[i])` for every `x[i] > 0`: the large-argument
/// kernel over the whole slice, then the ascending series for the lanes at
/// or below 12. Lane `i` is `scale * hankel1_0(x[i])` bit for bit.
pub fn hankel1_0_into(x: &[f64], scale: C64, out: &mut [C64]) {
    assert_eq!(x.len(), out.len(), "one output per argument");
    large(x, &ORDER_0, scale, out);
    for (o, &x) in out.iter_mut().zip(x) {
        if x <= SERIES_CUTOFF {
            *o = scale * hankel1_0(x);
        }
    }
}

/// Bessel function of the first kind, order 0.
pub fn j0(x: f64) -> f64 {
    let x = x.abs();
    if x <= SERIES_CUTOFF {
        j0_series(x)
    } else {
        large_scalar(x, &ORDER_0).re
    }
}

/// Bessel function of the first kind, order 1.
pub fn j1(x: f64) -> f64 {
    let ax = x.abs();
    let v = if ax <= SERIES_CUTOFF {
        j1_series(ax)
    } else {
        large_scalar(ax, &ORDER_1).re
    };
    if x < 0.0 {
        -v
    } else {
        v
    }
}

/// Bessel function of the second kind, order 0. Requires `x > 0`.
pub fn y0(x: f64) -> f64 {
    hankel1_0(x).im
}

/// Bessel function of the second kind, order 1. Requires `x > 0`.
pub fn y1(x: f64) -> f64 {
    hankel1_1(x).im
}

/// Ascending series for J0: sum_k (-1)^k (x^2/4)^k / (k!)^2.
fn j0_series(x: f64) -> f64 {
    let q = 0.25 * x * x;
    let mut term = 1.0f64;
    let mut sum = 1.0f64;
    let mut k = 0usize;
    loop {
        k += 1;
        term *= -q / ((k * k) as f64);
        sum += term;
        if term.abs() < 1e-18 * sum.abs().max(1.0) || k > 60 {
            break;
        }
    }
    sum
}

/// Ascending series for J1: (x/2) sum_k (-1)^k (x^2/4)^k / (k! (k+1)!).
fn j1_series(x: f64) -> f64 {
    let q = 0.25 * x * x;
    let mut term = 1.0f64;
    let mut sum = 1.0f64;
    let mut k = 0usize;
    loop {
        k += 1;
        term *= -q / ((k * (k + 1)) as f64);
        sum += term;
        if term.abs() < 1e-18 * sum.abs().max(1.0) || k > 60 {
            break;
        }
    }
    0.5 * x * sum
}

/// Ascending series for Y0 (Abramowitz & Stegun 9.1.13):
/// Y0 = (2/pi) [ (ln(x/2) + gamma) J0(x) + sum_{k>=1} (-1)^{k+1} H_k q^k / (k!)^2 ],
/// given `j0 = j0_series(x)`.
fn y0_series(x: f64, j0: f64) -> f64 {
    let q = 0.25 * x * x;
    let mut term = 1.0f64; // q^k / (k!)^2, starting at k=0 -> 1
    let mut hk = 0.0f64;
    let mut sum = 0.0f64;
    for k in 1..=70usize {
        term *= q / ((k * k) as f64);
        hk += 1.0 / k as f64;
        let contrib = if k % 2 == 1 { term * hk } else { -term * hk };
        sum += contrib;
        if term * hk < 1e-18 * sum.abs().max(1.0) {
            break;
        }
    }
    std::f64::consts::FRAC_2_PI * (((0.5 * x).ln() + EULER_GAMMA) * j0 + sum)
}

/// Ascending series for Y1 (A&S 9.1.11 with n = 1):
/// Y1 = (2/pi)(ln(x/2)) J1 - (2/(pi x))
///      - (x/(2 pi)) sum_{k>=0} (-1)^k [psi(k+1) + psi(k+2)] q^k / (k!(k+1)!)
/// where psi(1) = -gamma, psi(m) = -gamma + H_{m-1}, given `j1 = j1_series(x)`.
fn y1_series(x: f64, j1: f64) -> f64 {
    let q = 0.25 * x * x;
    let mut term = 1.0f64; // q^k / (k! (k+1)!)
    let mut sum = 0.0f64;
    let mut hk = 0.0f64; // H_k
    let mut hk1 = 1.0f64; // H_{k+1}
    for k in 0..=70usize {
        // psi(k+1) + psi(k+2) = -2 gamma + H_k + H_{k+1}
        let psi_sum = -2.0 * EULER_GAMMA + hk + hk1;
        let contrib = if k % 2 == 0 {
            term * psi_sum
        } else {
            -term * psi_sum
        };
        sum += contrib;
        if term.abs() * psi_sum.abs().max(1.0) < 1e-18 * sum.abs().max(1.0) && k > 2 {
            break;
        }
        let kk = k + 1;
        term *= q / ((kk * (kk + 1)) as f64);
        hk += 1.0 / kk as f64;
        hk1 += 1.0 / (kk + 1) as f64;
    }
    std::f64::consts::FRAC_2_PI * (0.5 * x).ln() * j1
        - 2.0 / (std::f64::consts::PI * x)
        - x / (2.0 * std::f64::consts::PI) * sum
}

/// Computes `J_n(x)` for all orders `n = 0..=n_max` via Miller's downward
/// recurrence, normalized with `J0 + 2 sum_{k>=1} J_{2k} = 1`.
///
/// Valid for `x >= 0`. For `x = 0` returns `[1, 0, 0, ...]`.
pub fn jn_array(n_max: usize, x: f64) -> Vec<f64> {
    assert!(x >= 0.0, "jn_array requires x >= 0");
    let mut out = vec![0.0f64; n_max + 1];
    if x == 0.0 {
        out[0] = 1.0;
        return out;
    }
    if x <= 1e-8 {
        // Tiny argument: leading-order terms avoid the recurrence entirely.
        out[0] = 1.0 - 0.25 * x * x;
        if n_max >= 1 {
            out[1] = 0.5 * x;
        }
        if n_max >= 2 {
            out[2] = 0.125 * x * x;
        }
        return out;
    }
    // Start the downward recurrence high enough that J_start is negligible.
    let base = n_max.max(x.ceil() as usize);
    let start = base + 16 + (2.0 * (base as f64).sqrt()).ceil() as usize;
    let start = if start.is_multiple_of(2) {
        start
    } else {
        start + 1
    };

    let mut jp1 = 0.0f64; // J_{start+1}
    let mut j = 1e-300f64; // J_{start} seed (arbitrary tiny value; fixed by normalization)
    let mut norm = if start % 2 == 0 { 2.0 * j } else { 0.0 }; // accumulates J0 + 2 sum J_{2k}
    for m in (1..=start).rev() {
        // J_{m-1} = (2m/x) J_m - J_{m+1}
        let jm1 = (2.0 * m as f64 / x) * j - jp1;
        jp1 = j;
        j = jm1;
        let idx = m - 1; // j now holds J_{idx}
        if idx <= n_max {
            out[idx] = j;
        }
        if idx % 2 == 0 {
            norm += if idx == 0 { j } else { 2.0 * j };
        }
        if j.abs() > 1e250 {
            // Rescale to avoid overflow; affects everything uniformly.
            let s = 1e-250;
            j *= s;
            jp1 *= s;
            norm *= s;
            for v in out.iter_mut() {
                *v *= s;
            }
        }
    }
    let inv = 1.0 / norm;
    for v in out.iter_mut() {
        *v *= inv;
    }
    out
}

/// Computes `Y_n(x)` for all orders `n = 0..=n_max` via stable upward
/// recurrence. Requires `x > 0`.
///
/// For large `n >> x`, `Y_n` grows factorially; values that overflow are
/// returned as `-inf`, which callers must treat as out-of-validity.
pub fn yn_array(n_max: usize, x: f64) -> Vec<f64> {
    assert!(x > 0.0, "yn_array requires x > 0");
    let mut out = Vec::with_capacity(n_max + 1);
    out.push(y0(x));
    if n_max >= 1 {
        out.push(y1(x));
    }
    for n in 1..n_max {
        let next = (2.0 * n as f64 / x) * out[n] - out[n - 1];
        out.push(next);
    }
    out
}

/// Computes `H_n^{(1)}(x) = J_n(x) + i Y_n(x)` for `n = 0..=n_max`. Requires `x > 0`.
pub fn hankel1_array(n_max: usize, x: f64) -> Vec<C64> {
    let j = jn_array(n_max, x);
    let y = yn_array(n_max, x);
    j.iter().zip(y.iter()).map(|(&a, &b)| c64(a, b)).collect()
}

/// `H_0^{(1)}(x)`. Requires `x > 0`.
pub fn hankel1_0(x: f64) -> C64 {
    assert!(x > 0.0, "hankel1_0 requires x > 0, got {x}");
    if x <= SERIES_CUTOFF {
        let j = j0_series(x);
        c64(j, y0_series(x, j))
    } else {
        large_scalar(x, &ORDER_0)
    }
}

/// `H_1^{(1)}(x)`. Requires `x > 0`.
pub fn hankel1_1(x: f64) -> C64 {
    assert!(x > 0.0, "hankel1_1 requires x > 0, got {x}");
    if x <= SERIES_CUTOFF {
        let j = j1_series(x);
        c64(j, y1_series(x, j))
    } else {
        large_scalar(x, &ORDER_1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference J0 via the integral representation
    /// J0(x) = (1/pi) int_0^pi cos(x sin t) dt, composite Simpson.
    fn j0_ref(x: f64) -> f64 {
        let n = 20_000usize;
        let h = std::f64::consts::PI / n as f64;
        let f = |t: f64| (x * t.sin()).cos();
        let mut s = f(0.0) + f(std::f64::consts::PI);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            s += w * f(i as f64 * h);
        }
        s * h / 3.0 / std::f64::consts::PI
    }

    /// Reference J_n via integral J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt.
    fn jn_ref(n: usize, x: f64) -> f64 {
        let m = 40_000usize;
        let h = std::f64::consts::PI / m as f64;
        let f = |t: f64| (n as f64 * t - x * t.sin()).cos();
        let mut s = f(0.0) + f(std::f64::consts::PI);
        for i in 1..m {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            s += w * f(i as f64 * h);
        }
        s * h / 3.0 / std::f64::consts::PI
    }

    #[test]
    fn j0_matches_integral_representation() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 11.9, 12.1, 20.0, 50.0, 123.4] {
            let a = j0(x);
            let b = j0_ref(x);
            assert!((a - b).abs() < 5e-11, "j0({x}): {a} vs {b}");
        }
    }

    #[test]
    fn j1_matches_integral_representation() {
        for &x in &[0.1, 1.0, 3.0, 7.5, 11.9, 12.1, 25.0, 80.0] {
            let a = j1(x);
            let b = jn_ref(1, x);
            assert!((a - b).abs() < 5e-11, "j1({x}): {a} vs {b}");
        }
    }

    #[test]
    fn known_values_spot_check() {
        // 8+ digit reference values (Abramowitz & Stegun tables).
        assert!((j0(1.0) - 0.765_197_686_6).abs() < 1e-9);
        assert!((j1(1.0) - 0.440_050_585_7).abs() < 1e-9);
        assert!((y0(1.0) - 0.088_256_964_2).abs() < 1e-9);
        assert!((y1(1.0) + 0.781_212_821_3).abs() < 1e-9);
        assert!((j0(2.0) - 0.223_890_779_1).abs() < 1e-9);
        assert!((y0(2.0) - 0.510_375_672_6).abs() < 1e-9);
    }

    #[test]
    fn wronskian_identity_all_regimes() {
        // J_{n+1}(x) Y_n(x) - J_n(x) Y_{n+1}(x) = 2/(pi x), exactly.
        for &x in &[0.05, 0.3, 1.0, 4.0, 9.0, 11.99, 12.01, 30.0, 100.0, 400.0] {
            let nmax = 40usize.min((2.0 * x) as usize + 20);
            let j = jn_array(nmax + 1, x);
            let y = yn_array(nmax + 1, x);
            let expect = 2.0 / (std::f64::consts::PI * x);
            for n in 0..=nmax {
                let w = j[n + 1] * y[n] - j[n] * y[n + 1];
                let rel = (w - expect).abs() / expect;
                assert!(rel < 1e-9, "wronskian n={n} x={x}: rel={rel:e}");
            }
        }
    }

    #[test]
    fn jn_matches_integral_representation() {
        for &x in &[2.0, 7.0, 15.0, 40.0] {
            let j = jn_array(12, x);
            for n in [0usize, 1, 3, 7, 12] {
                let r = jn_ref(n, x);
                assert!((j[n] - r).abs() < 1e-9, "J_{n}({x}): {} vs {r}", j[n]);
            }
        }
    }

    #[test]
    fn jn_recurrence_internally_consistent() {
        for &x in &[0.7, 3.3, 22.0] {
            let j = jn_array(25, x);
            for n in 1..24 {
                let lhs = j[n - 1] + j[n + 1];
                let rhs = 2.0 * n as f64 / x * j[n];
                assert!(
                    (lhs - rhs).abs() < 1e-12 * (1.0 + rhs.abs()),
                    "recurrence n={n} x={x}"
                );
            }
        }
    }

    #[test]
    fn jn_array_at_zero_and_tiny() {
        let j = jn_array(5, 0.0);
        assert_eq!(j[0], 1.0);
        assert!(j[1..].iter().all(|&v| v == 0.0));
        let j = jn_array(3, 1e-10);
        assert!((j[0] - 1.0).abs() < 1e-15);
        assert!((j[1] - 5e-11).abs() < 1e-20);
    }

    #[test]
    fn hankel_limits() {
        // Large-x asymptotics: H0^(1)(x) ~ sqrt(2/(pi x)) e^{i(x - pi/4)}.
        let x = 300.0;
        let h = hankel1_0(x);
        let amp = (2.0 / (std::f64::consts::PI * x)).sqrt();
        let expect = C64::cis(x - std::f64::consts::FRAC_PI_4) * amp;
        assert!((h - expect).abs() / amp < 2e-3, "{h:?} vs {expect:?}");
        // Small-x: Y0 ~ (2/pi)(ln(x/2) + gamma).
        let x = 1e-6_f64;
        let expect = std::f64::consts::FRAC_2_PI * ((0.5 * x).ln() + EULER_GAMMA);
        assert!((y0(x) - expect).abs() < 1e-10);
    }

    #[test]
    fn hankel_array_consistent_with_scalars() {
        let x = 9.25;
        let h = hankel1_array(6, x);
        assert!((h[0] - hankel1_0(x)).abs() < 1e-14);
        assert!((h[1] - hankel1_1(x)).abs() < 1e-14);
    }

    /// The large-argument branch this module used before the kernel:
    /// Hankel's expansion truncated at its smallest term, and libm's
    /// `sin_cos` of the phase.
    mod old {
        use super::*;

        /// `c_m(nu) = prod_{j=1..m} (4 nu^2 - (2j-1)^2) / (m! 8^m)`;
        /// `P = sum_{k even} (-1)^{k/2} c_k / x^k`, `Q` the odd terms.
        pub fn asymptotic_pq(nu: u32, x: f64) -> (f64, f64) {
            let mu = 4.0 * (nu as f64) * (nu as f64);
            let mut p = 1.0f64;
            let mut q = 0.0f64;
            let mut c = 1.0f64; // c_m(nu) / x^m accumulated
            let mut prev_abs = f64::INFINITY;
            for m in 1..=40usize {
                let odd = (2 * m - 1) as f64;
                c *= (mu - odd * odd) / (m as f64 * 8.0 * x);
                let a = c.abs();
                if a > prev_abs {
                    break; // series started diverging; stop at optimal truncation
                }
                prev_abs = a;
                match m % 4 {
                    1 => q += c,
                    2 => p -= c,
                    3 => q -= c,
                    _ => p += c,
                }
                if a < 1e-18 {
                    break;
                }
            }
            (p, q)
        }

        /// `H_nu^(1)(x)`, `nu` 0 or 1, for `x > 12`.
        pub fn hankel(nu: u32, x: f64) -> C64 {
            let (p, q) = asymptotic_pq(nu, x);
            let chi = x - (2 * nu + 1) as f64 * FRAC_PI_4;
            let (sin, cos) = chi.sin_cos();
            let amp = (2.0 / (std::f64::consts::PI * x)).sqrt();
            c64(amp * (p * cos - q * sin), amp * (p * sin + q * cos))
        }
    }

    /// A double-double: the unevaluated sum `hi + lo`, `|lo| <= ulp(hi)/2`.
    #[derive(Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn quick(a: f64, b: f64) -> Dd {
            let s = a + b;
            Dd(s, b - (s - a))
        }

        fn add(self, o: Dd) -> Dd {
            let s = self.0 + o.0;
            let v = s - self.0;
            let e = (self.0 - (s - v)) + (o.0 - v);
            Dd::quick(s, e + self.1 + o.1)
        }

        fn mul(self, o: Dd) -> Dd {
            let p = self.0 * o.0;
            let e = self.0.mul_add(o.0, -p) + (self.0 * o.1 + self.1 * o.0);
            Dd::quick(p, e)
        }

        fn div(self, d: f64) -> Dd {
            let q = self.0 / d;
            let r = self.add(Dd(-q * d, -q.mul_add(d, -q * d)));
            Dd::quick(q, r.0 / d)
        }

        fn neg(self) -> Dd {
            Dd(-self.0, -self.1)
        }

        fn f64(self) -> f64 {
            self.0 + self.1
        }
    }

    /// `H0^(1)(x)` from the ascending series summed in double-double: the
    /// series' cancellation (terms to ~1e9 at `x = 25`) costs ~1e-23, and
    /// `ln(x/2)` in double ~2e-16 of `Y0` — the floor of what this
    /// reference can tell apart.
    fn h0_double_double(x: f64) -> C64 {
        let q = Dd(x * x, x.mul_add(x, -x * x)).mul(Dd(0.25, 0.0));
        let (mut j0, mut series) = (Dd(1.0, 0.0), Dd(0.0, 0.0));
        let (mut term, mut harmonic) = (Dd(1.0, 0.0), Dd(0.0, 0.0));
        for k in 1..200 {
            term = term.mul(q).div((k * k) as f64); // q^k / (k!)^2
            harmonic = harmonic.add(Dd(1.0, 0.0).div(k as f64));
            let signed = if k % 2 == 1 { term } else { term.neg() };
            j0 = j0.add(signed.neg());
            series = series.add(signed.mul(harmonic));
            if term.0 < 1e-40 {
                break;
            }
        }
        let log = Dd((0.5 * x).ln(), 0.0).add(Dd(EULER_GAMMA, -4.942_915_152_430_645e-18));
        let two_over_pi = Dd(FRAC_2_PI, -3.935_735_335_036_497e-17);
        let y0 = two_over_pi.mul(log.mul(j0).add(series));
        c64(j0.f64(), y0.f64())
    }

    /// Arguments above the cutoff: `count` log-spaced up to `top`, and up
    /// to 1000 more in the first unit above the cutoff.
    fn above_cutoff(count: usize, top: f64) -> Vec<f64> {
        let near_count = count.min(1000);
        let near = (1..=near_count).map(move |i| SERIES_CUTOFF + i as f64 / near_count as f64);
        let ratio = top / SERIES_CUTOFF;
        let far = (1..=count).map(move |i| SERIES_CUTOFF * ratio.powf(i as f64 / count as f64));
        near.chain(far).collect()
    }

    fn rel(a: C64, b: C64) -> f64 {
        (a - b).abs() / b.abs()
    }

    /// The scalar functions are the body at width 1, `hankel1_0_into` is the
    /// scalar function lane by lane, and `J`, `Y` are the parts of `H`.
    #[test]
    fn the_scalars_are_the_body_at_width_one() {
        let grid = (1..=500).map(|i| 0.05 * i as f64); // (0, 25]: both branches
        let far = (0..60).map(|i| 200.0 + 5.0037 * i as f64);
        let xs: Vec<f64> = grid
            .chain(far)
            .chain([SERIES_CUTOFF, SERIES_CUTOFF + f64::EPSILON * 16.0])
            .collect();
        for &x in &xs {
            assert_eq!(hankel1_0(x), c64(j0(x), y0(x)), "x = {x}");
            assert_eq!(hankel1_1(x), c64(j1(x), y1(x)), "x = {x}");
            if x > SERIES_CUTOFF {
                for (order, h) in [(&ORDER_0, hankel1_0(x)), (&ORDER_1, hankel1_1(x))] {
                    let mut lane = [C64::ZERO];
                    large_body(&[x], order, C64::ONE, &mut lane);
                    assert_eq!(lane[0], h, "x = {x}");
                }
            }
        }
        let scale = c64(-0.3, 1.7);
        let mut row = vec![C64::ZERO; xs.len()];
        hankel1_0_into(&xs, scale, &mut row);
        for (&x, &h) in xs.iter().zip(&row) {
            assert_eq!(h, scale * hankel1_0(x), "x = {x}");
        }
    }

    /// The portable body and the dispatched instance give the same bits at
    /// every width, remainder lanes included.
    #[test]
    fn body_and_instance_agree_at_every_width() {
        let xs = above_cutoff(if cfg!(miri) { 40 } else { 4000 }, 1e4);
        let scale = c64(0.0, 0.25);
        for width in [1, 3, 4, 37] {
            let chunks = xs
                .chunks_exact(width)
                .step_by(if cfg!(miri) { 400 } else { 7 });
            for chunk in chunks {
                for order in [&ORDER_0, &ORDER_1] {
                    let (mut body, mut instance) = (vec![C64::ZERO; width], vec![C64::ZERO; width]);
                    large_body(chunk, order, scale, &mut body);
                    large(chunk, order, scale, &mut instance);
                    assert_eq!(body, instance, "width {width}");
                }
            }
        }
    }

    /// `J1 Y0 - J0 Y1 = 2/(pi x)`: a relation between the two orders the
    /// fits were not made to satisfy, to 1e-14 over the kernel's range.
    #[test]
    fn wronskian_above_the_cutoff() {
        let xs = above_cutoff(if cfg!(miri) { 50 } else { 200_000 }, 1e4);
        let mut worst: f64 = 0.0;
        for x in xs {
            let (h0, h1) = (hankel1_0(x), hankel1_1(x));
            let expect = 2.0 / (std::f64::consts::PI * x);
            let w = h1.re * h0.im - h0.re * h1.im;
            let err = (w - expect).abs() / expect;
            assert!(err <= 1e-14, "x = {x}: relative error {err:e}");
            worst = worst.max(err);
        }
        println!("wronskian: worst relative error {worst:.2e}");
    }

    /// From 25 on, the optimal-truncation expansion is exact to double
    /// precision; the kernel agrees with it to 5e-15.
    #[test]
    fn h0_agrees_with_the_old_expansion_from_25() {
        let count = if cfg!(miri) { 50 } else { 100_000 };
        let mut worst: f64 = 0.0;
        for i in 0..=count {
            let x = 25.0 * (400.0f64).powf(i as f64 / count as f64); // [25, 1e4]
            let err = rel(hankel1_0(x), old::hankel(0, x));
            assert!(err <= 5e-15, "x = {x}: relative difference {err:e}");
            worst = worst.max(err);
        }
        println!("H0 vs the old expansion on [25, 1e4]: worst {worst:.2e}");
    }

    /// On (12, 25] the old expansion sits at its truncation error; against
    /// the double-double series the kernel is nowhere less accurate and its
    /// worst case is smaller. Both round `chi = x - pi/4` alike, which puts
    /// a floor of half an ulp of `x` under either error (plus the
    /// reference's own few 1e-16); below that floor neither is ranked.
    #[test]
    fn h0_from_12_to_25_is_no_less_accurate_than_the_old_expansion() {
        let step = if cfg!(miri) { 0.5 } else { 0.005 };
        let (mut worst_new, mut worst_old): (f64, f64) = (0.0, 0.0);
        let mut x = SERIES_CUTOFF + step;
        while x <= 25.0 {
            let exact = h0_double_double(x);
            let (new, old) = (rel(hankel1_0(x), exact), rel(old::hankel(0, x), exact));
            let floor = 0.5 * (f64::from_bits(x.to_bits() + 1) - x) + 5e-16;
            assert!(
                new <= old.max(floor),
                "x = {x}: {new:e} against {old:e} before"
            );
            (worst_new, worst_old) = (worst_new.max(new), worst_old.max(old));
            x += step;
        }
        println!("H0 on (12, 25]: worst {worst_new:.2e} (old expansion {worst_old:.2e})");
        assert!(worst_new < worst_old);
    }

    #[test]
    fn series_asymptotic_crossover_continuous() {
        // Both regimes at exactly x = 12 — the old expansion too — must
        // agree to ~1e-10.
        let x = SERIES_CUTOFF;
        let series = [
            c64(j0_series(x), y0_series(x, j0_series(x))),
            c64(j1_series(x), y1_series(x, j1_series(x))),
        ];
        let kernel = [large_scalar(x, &ORDER_0), large_scalar(x, &ORDER_1)];
        let expansion = [old::hankel(0, x), old::hankel(1, x)];
        for nu in 0..2 {
            assert!((series[nu] - kernel[nu]).abs() < 1e-11, "order {nu}");
            assert!((series[nu] - expansion[nu]).abs() < 1e-10, "order {nu}");
        }
    }

    #[test]
    fn yn_grows_for_n_above_x() {
        let y = yn_array(30, 5.0);
        assert!(y[29].abs() > y[10].abs());
        assert!(y[29] < 0.0); // Y_n(x) -> -inf direction for n >> x
    }
}

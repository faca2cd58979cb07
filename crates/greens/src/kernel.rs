//! Matrix elements of the 2-D Helmholtz Green's operators.
//!
//! The free-space Green's function is `g0(r, r') = (i/4) H0^(1)(k |r - r'|)`
//! (paper Section VI-A). Pixels are discretized with the equivalent-circle
//! (Richmond) collocation scheme: each square pixel of side `delta` is
//! replaced by the equal-area disk of radius `a = delta / sqrt(pi)`, for which
//! the pixel integrals in the paper's Eq. (4) have closed forms:
//!
//! * field at an external point due to a uniformly excited disk:
//!   `(i/4) * (2 pi a / k) J1(ka) * H0^(1)(k |r - r_n|)`;
//! * self term (observation at the disk center):
//!   `(i/4) * (2 pi / k^2) * (k a H1^(1)(ka) + 2i/pi)`.
//!
//! The second form is the analytical singularity extraction the paper invokes
//! for the diagonal. Both reduce to `(i/4) pi a^2 H0` as `ka -> 0`, and the
//! first keeps the *far-field kernel exactly `H0`*, which is what MLFMA
//! factorizes: the far field of pixel `n` is `coupling * H0^(1)(k|r - r_n|)`.

use ffw_numerics::bessel::{hankel1_0, hankel1_1, j1};
use ffw_numerics::{c64, C64};

/// `i/4`: the free-space Green's function is `(i/4) H0^(1)(k r)`.
pub(crate) const QUARTER_I: C64 = c64(0.0, 0.25);

/// Precomputed per-problem kernel constants.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    /// Background wavenumber.
    pub k: f64,
    /// Equivalent disk radius.
    pub a: f64,
    /// Scalar coupling `(i/4)(2 pi a / k) J1(ka)` multiplying `H0(k r)` for
    /// all off-diagonal / receiver / far-field interactions.
    pub coupling: C64,
    /// Diagonal (self) interaction element.
    pub self_term: C64,
}

impl Kernel {
    /// Builds the kernel for wavenumber `k` and equivalent radius `a`.
    pub fn new(k: f64, a: f64) -> Self {
        assert!(k > 0.0 && a > 0.0);
        let ka = k * a;
        let coupling = c64(0.0, 0.25) * (2.0 * std::f64::consts::PI * a / k) * j1(ka);
        let h1 = hankel1_1(ka);
        let bracket = h1 * ka + c64(0.0, std::f64::consts::FRAC_2_PI);
        let self_term = c64(0.0, 0.25) * (2.0 * std::f64::consts::PI / (k * k)) * bracket;
        Kernel {
            k,
            a,
            coupling,
            self_term,
        }
    }

    /// Pixel-pixel interaction element `G0[m, n]` for center distance `r`
    /// (`r = 0` selects the self term).
    #[inline]
    pub fn g0_element(&self, r: f64) -> C64 {
        if r == 0.0 {
            self.self_term
        } else {
            self.coupling * hankel1_0(self.k * r)
        }
    }

    /// Receiver element `GR[r, n]`: field at an external observation point at
    /// distance `r` from pixel `n` (same disk radiation formula).
    #[inline]
    pub fn gr_element(&self, r: f64) -> C64 {
        debug_assert!(r > 0.0, "receivers must lie outside the pixel");
        self.coupling * hankel1_0(self.k * r)
    }

    /// Incident field of a unit line source at distance `r`:
    /// `(i/4) H0^(1)(k r)` (transmitters are Dirac deltas, Section VI-A).
    #[inline]
    pub fn incident_line_source(&self, r: f64) -> C64 {
        QUARTER_I * hankel1_0(self.k * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ka_limits() {
        // For ka -> 0 both coupling and self term approach (i/4) * pi a^2.
        let k = 2.0 * std::f64::consts::PI;
        let a = 1e-4;
        let kern = Kernel::new(k, a);
        let area = std::f64::consts::PI * a * a;
        let ideal = c64(0.0, 0.25) * area;
        assert!((kern.coupling - ideal).abs() / ideal.abs() < 1e-6);
        // self term has a logarithmic correction; only its magnitude order matches
        assert!(kern.self_term.abs() < 10.0 * ideal.abs() * (1.0 / a).ln());
    }

    #[test]
    fn self_term_matches_numerical_disk_integral() {
        // Integrate (i/4) H0(k rho) over the disk numerically.
        let k = 2.0 * std::f64::consts::PI;
        let a = 0.1 / std::f64::consts::PI.sqrt();
        let kern = Kernel::new(k, a);
        let nr = 4000;
        let mut acc = C64::ZERO;
        for i in 0..nr {
            let rho = (i as f64 + 0.5) * a / nr as f64;
            acc += hankel1_0(k * rho) * (rho * a / nr as f64);
        }
        let numeric = c64(0.0, 0.25) * (2.0 * std::f64::consts::PI) * acc;
        assert!(
            (numeric - kern.self_term).abs() / kern.self_term.abs() < 1e-5,
            "{numeric:?} vs {:?}",
            kern.self_term
        );
    }

    #[test]
    fn off_diag_matches_numerical_disk_integral() {
        // Field at an external point r due to the uniformly excited disk.
        let k = 2.0 * std::f64::consts::PI;
        let a = 0.1 / std::f64::consts::PI.sqrt();
        let kern = Kernel::new(k, a);
        let robs = 0.35; // distance from disk center
                         // 2-D quadrature over the disk
        let n = 600;
        let mut acc = C64::ZERO;
        let h = 2.0 * a / n as f64;
        for i in 0..n {
            for j in 0..n {
                let x = -a + (i as f64 + 0.5) * h;
                let y = -a + (j as f64 + 0.5) * h;
                if x * x + y * y <= a * a {
                    let d = ((robs - x) * (robs - x) + y * y).sqrt();
                    acc += hankel1_0(k * d) * (h * h);
                }
            }
        }
        let numeric = c64(0.0, 0.25) * acc;
        let closed = kern.g0_element(robs);
        assert!(
            (numeric - closed).abs() / closed.abs() < 1e-3,
            "{numeric:?} vs {closed:?}"
        );
    }

    #[test]
    fn incident_field_is_plain_green_function() {
        let kern = Kernel::new(2.0 * std::f64::consts::PI, 0.05);
        let v = kern.incident_line_source(1.0);
        let h = hankel1_0(2.0 * std::f64::consts::PI);
        assert!((v - c64(0.0, 0.25) * h).abs() < 1e-15);
    }
}

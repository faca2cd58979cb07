//! ABFT checksum lanes for reductions: the element sum of a complex
//! vector, carried next to the data, and the tolerance-based check a
//! receiver runs against the data it got. A lane catches a value that was
//! wrong before it was sent — damage inside the reduction arithmetic — which
//! no check of the transport could see.

/// ABFT checksum lane for a complex vector: the element sum, carried next
/// to the data so a receiver can re-derive it and detect corruption of the
/// data before it was sent (e.g. a fault *inside* a reduction).
pub fn abft_lane_c64(data: &[(f64, f64)]) -> (f64, f64) {
    let mut re = 0.0;
    let mut im = 0.0;
    for &(r, i) in data {
        re += r;
        im += i;
    }
    (re, im)
}

/// Verify an ABFT checksum lane against the received data. The lane is a
/// floating-point sum, so verification is tolerance-based (association
/// order may differ across senders): relative error against the larger of
/// the lane magnitude and the data's 1-norm, with `tol` around 1e-9 for
/// the injected-corruption regime (bit flips move sums by many orders of
/// magnitude; legitimate reassociation moves them by ~1e-16).
pub fn abft_verify_c64(data: &[(f64, f64)], lane: (f64, f64), tol: f64) -> bool {
    let got = abft_lane_c64(data);
    if !got.0.is_finite() || !got.1.is_finite() || !lane.0.is_finite() || !lane.1.is_finite() {
        // A NaN/Inf lane or sum is itself evidence of corruption unless
        // both sides agree bit-for-bit.
        return got.0.to_bits() == lane.0.to_bits() && got.1.to_bits() == lane.1.to_bits();
    }
    let norm1: f64 = data.iter().map(|&(r, i)| r.abs() + i.abs()).sum();
    let scale = norm1.max(lane.0.abs() + lane.1.abs()).max(1.0);
    let err = (got.0 - lane.0).abs() + (got.1 - lane.1).abs();
    err <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abft_lane_accepts_clean_and_rejects_corrupt() {
        let data: Vec<(f64, f64)> = (0..32)
            .map(|i| ((i as f64).sin(), (i as f64).cos()))
            .collect();
        let lane = abft_lane_c64(&data);
        assert!(abft_verify_c64(&data, lane, 1e-9));
        // Reassociation-level perturbation of the lane still verifies.
        let jittered = (lane.0 * (1.0 + 1e-15), lane.1);
        assert!(abft_verify_c64(&data, jittered, 1e-9));
        // A corrupted element does not.
        let mut bad = data.clone();
        bad[7].0 += 1.0e3;
        assert!(!abft_verify_c64(&bad, lane, 1e-9));
    }

    #[test]
    fn abft_lane_flags_nonfinite_disagreement() {
        let data = vec![(1.0, 2.0), (3.0, 4.0)];
        assert!(!abft_verify_c64(&data, (f64::NAN, 0.0), 1e-9));
        let nan_data = vec![(f64::NAN, 0.0)];
        let lane = abft_lane_c64(&nan_data);
        // Bitwise-equal NaN lanes agree (both sides saw the same bits).
        assert!(abft_verify_c64(&nan_data, lane, 1e-9));
    }
}

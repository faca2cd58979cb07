//! End-to-end message integrity: a from-scratch CRC-32 (IEEE 802.3
//! polynomial, reflected) used by `ffw-mpi` to frame every payload, plus
//! the ABFT-style checksum-lane verifier used by the allreduce.
//!
//! No dependencies: the 256-entry table is computed at first use and cached
//! behind a `OnceLock`, and the checksum is the standard reflected CRC-32
//! (`crc32("123456789") == 0xCBF4_3926`) so it can be cross-checked against
//! any external implementation.

use std::sync::OnceLock;

/// Reflected IEEE 802.3 polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    })
}

/// CRC-32 (IEEE, reflected) of `bytes`. `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Incremental form: feed chunks into a running state initialised to
/// `0xFFFF_FFFF`, finalise by XORing with `0xFFFF_FFFF`.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = table();
    let mut c = state;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 over a complex buffer's raw bit patterns (order-sensitive), so
/// `-0.0` vs `0.0` and NaN payloads are all distinguished.
pub fn crc32_c64(data: &[(f64, f64)]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &(re, im) in data {
        c = crc32_update(c, &re.to_bits().to_le_bytes());
        c = crc32_update(c, &im.to_bits().to_le_bytes());
    }
    c ^ 0xFFFF_FFFF
}

/// ABFT checksum lane for a complex vector: the element sum, carried next
/// to the data so a receiver can re-derive it and detect corruption that a
/// per-message CRC cannot see (e.g. a fault *inside* a reduction).
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
    fn crc32_matches_published_vectors() {
        // The canonical check value for reflected IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_incremental_equals_one_shot() {
        let msg = b"hello, distributed world";
        let one = crc32(msg);
        let mut state = 0xFFFF_FFFFu32;
        for chunk in msg.chunks(5) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, one);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, -(i as f64) / 3.0)).collect();
        let clean = crc32_c64(&data);
        for flip_idx in [0usize, 17, 63] {
            let mut bad = data.clone();
            bad[flip_idx].0 = f64::from_bits(bad[flip_idx].0.to_bits() ^ (1 << 13));
            assert_ne!(crc32_c64(&bad), clean, "flip at {flip_idx} undetected");
        }
    }

    #[test]
    fn crc32_is_bit_pattern_sensitive() {
        // -0.0 == 0.0 under PartialEq but has a different bit pattern; the
        // CRC must distinguish them (payloads travel as raw bits).
        assert_ne!(crc32_c64(&[(0.0, 0.0)]), crc32_c64(&[(-0.0, 0.0)]));
        assert_eq!(crc32_c64(&[(1.5, 2.5)]), crc32_c64(&[(1.5, 2.5)]));
    }

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

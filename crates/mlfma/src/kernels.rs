//! The far-field kernels of the tree traversal, over split re/im planes.
//!
//! A pattern *slot* is `q` re samples followed by `q` im samples. Two of
//! Table I's three far-field structures live here (the dense leaf operators
//! are [`crate::local`]):
//!
//! * **diagonal** ([`translate`]) — the `q` samples are the lanes. One
//!   observer slot at a time, a register-sized block of its samples
//!   accumulates over the observer's whole pair list and is stored once
//!   (the translators of one level stay in cache across the clusters).
//! * **band-diagonal** ([`interp_shift`], [`shift_anterp`]) — the four
//!   siblings x (re, im) are the 8 lanes. A band row touches `band`
//!   *consecutive* child samples with one real weight each, so along the
//!   samples there is nothing contiguous to vectorise without re-associating
//!   the band sum; across the four children of one parent the same row and
//!   the same weights apply, so the children are transposed to sample-major
//!   `[r][pos * 2 + {re, im}]` (`8 q_child` moves against `8 * band *
//!   q_parent` multiply-adds) and every band step is one contiguous 8-lane
//!   load, a broadcast weight and a multiply-add. A band that wraps is its
//!   two runs of rows, so no row falls back to a scalar path. The diagonal
//!   shift of each sibling rides along per parent sample.
//!
//! The invariant everything downstream rests on: every output element sees
//! its terms in one fixed order — band sums in `j` order, pairs in list
//! order, siblings in `pos` order — and every term enters its sum by a fixed
//! chain of `f64::mul_add`: a complex multiply-add `acc += t * s` is
//! `acc_re = fma(-t_im, s_im, fma(t_re, s_re, acc_re))`, `acc_im = fma(t_im,
//! s_re, fma(t_re, s_im, acc_im))` (four roundings where the unfused
//! `C64::mul_add` — the solver's, untouched — takes eight), a band tap is
//! `acc = fma(row, w, acc)`, and the shifted parent sample of the downward
//! pass is `fma(-g_im, s_im, g_re * s_re) * alpha`. Lanes never mix, so a
//! column is bit-identical at every panel width; a fused multiply-add is
//! correctly rounded wherever it runs, so the portable body and its
//! `avx2,fma` instance (`dispatch!`) agree bit for bit.

use crate::plan::SIBLING_LANES;
use ffw_numerics::linalg::PeriodicBandMatrix;

/// One sample of the four siblings: `[pos * 2 + {re, im}]`.
type Siblings = [f64; SIBLING_LANES];

/// Transposes four child slots into sample-major rows.
#[inline(always)]
fn gather(children: [&[f64]; 4], rows: &mut [Siblings]) {
    for (pos, child) in children.into_iter().enumerate() {
        let (re, im) = child.split_at(rows.len());
        for ((row, re), im) in rows.iter_mut().zip(re).zip(im) {
            (row[2 * pos], row[2 * pos + 1]) = (*re, *im);
        }
    }
}

/// Inverse of [`gather`].
#[inline(always)]
fn scatter(rows: &[Siblings], children: [&mut [f64]; 4]) {
    for (pos, child) in children.into_iter().enumerate() {
        let (re, im) = child.split_at_mut(rows.len());
        for ((row, re), im) in rows.iter().zip(re).zip(im) {
            (*re, *im) = (row[2 * pos], row[2 * pos + 1]);
        }
    }
}

/// Row `i` of a band matrix as `(first column, weights)`: weight `j` applies
/// to column `(first + j) mod cols`. The kernels step that column index and
/// wrap it by hand rather than split the band into its two runs of rows: a
/// plain counted loop over `j` invites the loop vectoriser to put *rows* in
/// the lanes (strided gathers, 3x slower measured) where the 8 siblings
/// already are one.
#[inline(always)]
fn band_row(interp: &PeriodicBandMatrix, i: usize) -> (usize, &[f64]) {
    let band = interp.band();
    let first = interp.start()[i] as usize;
    (first, &interp.weights()[i * band..(i + 1) * band])
}

/// Samples `i0..i0 + R` of one observer slot `out`: the accumulators stay in
/// registers across the pair list, so `out` is written once, not read and
/// written once per pair. `sources` starts at the observer's column of
/// cluster 0, clusters being `cluster` words apart.
#[inline(always)]
fn translate_block<const R: usize>(
    pairs: &[(u32, u32)],
    translations: &[f64],
    sources: &[f64],
    cluster: usize,
    i0: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let q = out_re.len();
    let mut acc_re = [0.0; R];
    let mut acc_im = [0.0; R];
    for &(src, slot) in pairs {
        let t = &translations[slot as usize * 2 * q + i0..];
        let s = &sources[src as usize * cluster + i0..];
        let t_re: &[f64; R] = t[..R].try_into().expect("R samples");
        let t_im: &[f64; R] = t[q..][..R].try_into().expect("R samples");
        let s_re: &[f64; R] = s[..R].try_into().expect("R samples");
        let s_im: &[f64; R] = s[q..][..R].try_into().expect("R samples");
        for l in 0..R {
            acc_re[l] = (-t_im[l]).mul_add(s_im[l], t_re[l].mul_add(s_re[l], acc_re[l]));
            acc_im[l] = t_im[l].mul_add(s_re[l], t_re[l].mul_add(s_im[l], acc_im[l]));
        }
    }
    out_re[i0..i0 + R].copy_from_slice(&acc_re);
    out_im[i0..i0 + R].copy_from_slice(&acc_im);
}

#[inline(always)]
fn translate_body(
    pairs: &[(u32, u32)],
    translations: &[f64],
    q: usize,
    sources: &[f64],
    out: &mut [f64],
) {
    let cluster = out.len();
    for (b, slot) in out.chunks_exact_mut(2 * q).enumerate() {
        let sources = &sources[b * 2 * q..];
        let (o_re, o_im) = slot.split_at_mut(q);
        let mut i0 = 0;
        while i0 + 16 <= q {
            translate_block::<16>(pairs, translations, sources, cluster, i0, o_re, o_im);
            i0 += 16;
        }
        if i0 + 8 <= q {
            translate_block::<8>(pairs, translations, sources, cluster, i0, o_re, o_im);
            i0 += 8;
        }
        if i0 + 4 <= q {
            translate_block::<4>(pairs, translations, sources, cluster, i0, o_re, o_im);
            i0 += 4;
        }
        while i0 < q {
            translate_block::<1>(pairs, translations, sources, cluster, i0, o_re, o_im);
            i0 += 1;
        }
    }
}

/// `sum_pos t[pos] * s[pos]` of one parent sample, in `pos` order from zero.
#[inline(always)]
fn shift_sum(t: &Siblings, s: &Siblings) -> (f64, f64) {
    let (mut o_re, mut o_im) = (0.0, 0.0);
    for pos in 0..4 {
        let (t_re, t_im) = (t[2 * pos], t[2 * pos + 1]);
        let (s_re, s_im) = (s[2 * pos], s[2 * pos + 1]);
        o_re = (-t_im).mul_add(s_im, t_re.mul_add(s_re, o_re));
        o_im = t_im.mul_add(s_re, t_re.mul_add(s_im, o_im));
    }
    (o_re, o_im)
}

#[inline(always)]
fn interp_shift_body(
    interp: &PeriodicBandMatrix,
    shifts: &[f64],
    children: [&[f64]; 4],
    rows: &mut [Siblings],
    parent: &mut [f64],
) {
    let (rows, sums) = rows.split_at_mut(interp.cols());
    gather(children, rows);
    let q = interp.rows();
    for (i, sum) in sums.iter_mut().enumerate() {
        let (mut r, weights) = band_row(interp, i);
        let mut acc = [0.0; SIBLING_LANES];
        for w in weights {
            let row = &rows[r];
            for l in 0..SIBLING_LANES {
                acc[l] = row[l].mul_add(*w, acc[l]);
            }
            r += 1;
            if r == rows.len() {
                r = 0;
            }
        }
        *sum = acc;
    }
    // The shifts read the sums back from memory: fused into the sweep they
    // would dictate their (re, im) pairing to it as 2-lane accumulators.
    let (out_re, out_im) = parent.split_at_mut(q);
    let shifts = shifts.as_chunks::<SIBLING_LANES>().0;
    for (i, (t, s)) in sums.iter().zip(shifts).enumerate() {
        (out_re[i], out_im[i]) = shift_sum(t, s);
    }
}

#[inline(always)]
fn shift_anterp_body(
    interp: &PeriodicBandMatrix,
    shifts: &[f64],
    alpha: f64,
    parent: &[f64],
    rows: &mut [Siblings],
    children: [&mut [f64]; 4],
) {
    let [a, b, c, d] = children;
    gather([&*a, &*b, &*c, &*d], rows);
    let (g_re, g_im) = parent.split_at(interp.rows());
    let shifts = shifts.as_chunks::<SIBLING_LANES>().0;
    for (i, shift) in shifts.iter().enumerate() {
        let mut v = [0.0; SIBLING_LANES];
        for pos in 0..4 {
            let (s_re, s_im) = (shift[2 * pos], shift[2 * pos + 1]);
            v[2 * pos] = (-g_im[i]).mul_add(s_im, g_re[i] * s_re) * alpha;
            v[2 * pos + 1] = g_im[i].mul_add(s_re, g_re[i] * s_im) * alpha;
        }
        let (mut r, weights) = band_row(interp, i);
        for w in weights {
            let row = &mut rows[r];
            for l in 0..SIBLING_LANES {
                row[l] = v[l].mul_add(*w, row[l]);
            }
            r += 1;
            if r == rows.len() {
                r = 0;
            }
        }
    }
    scatter(rows, [a, b, c, d]);
}

/// Diagonal translations into one observer cluster, all columns of the
/// panel: `out` (the observer's `width` adjacent slots) is overwritten with
/// `sum_pairs T[slot] . sources[src]`, pairs in the order given. `sources`
/// holds the whole level (cluster `c`'s slots at `c * out.len()`),
/// `translations` the level's translators (`slot * 2q`).
pub fn translate(
    pairs: &[(u32, u32)],
    translations: &[f64],
    q: usize,
    sources: &[f64],
    out: &mut [f64],
) {
    assert!(out.len().is_multiple_of(2 * q), "whole slots");
    dispatch!(translate_body(
        pairs: &[(u32, u32)],
        translations: &[f64],
        q: usize,
        sources: &[f64],
        out: &mut [f64],
    ));
}

/// One step of the upward pass for one parent column: interpolates the four
/// child slots onto the parent sampling and accumulates them, each shifted
/// to the parent centre (`shifts`, sample-major), into the `parent` slot
/// (overwritten). `rows` is scratch: `interp.cols() + interp.rows()`
/// sibling rows (the transposed children, then the interpolated samples).
pub fn interp_shift(
    interp: &PeriodicBandMatrix,
    shifts: &[f64],
    children: [&[f64]; 4],
    rows: &mut [Siblings],
    parent: &mut [f64],
) {
    let scratch = interp.cols() + interp.rows();
    check_shapes(interp, shifts, children.map(<[f64]>::len), parent);
    assert_eq!(rows.len(), scratch, "one row per child and parent sample");
    dispatch!(interp_shift_body(
        interp: &PeriodicBandMatrix,
        shifts: &[f64],
        children: [&[f64]; 4],
        rows: &mut [Siblings],
        parent: &mut [f64],
    ));
}

/// One step of the downward pass for one parent column, the mirror of
/// [`interp_shift`]: shifts the `parent` slot to each child centre
/// (`shifts`, sample-major), scales by `alpha` and anterpolates (`interp^T`) *onto* the
/// four child slots, which already hold their translated patterns. `rows` is
/// scratch: `interp.cols()` sibling rows.
pub fn shift_anterp(
    interp: &PeriodicBandMatrix,
    shifts: &[f64],
    alpha: f64,
    parent: &[f64],
    rows: &mut [Siblings],
    children: [&mut [f64]; 4],
) {
    let lens = [0, 1, 2, 3].map(|pos| children[pos].len());
    check_shapes(interp, shifts, lens, parent);
    assert_eq!(rows.len(), interp.cols(), "one row per child sample");
    dispatch!(shift_anterp_body(
        interp: &PeriodicBandMatrix,
        shifts: &[f64],
        alpha: f64,
        parent: &[f64],
        rows: &mut [Siblings],
        children: [&mut [f64]; 4],
    ));
}

fn check_shapes(interp: &PeriodicBandMatrix, shift: &[f64], children: [usize; 4], parent: &[f64]) {
    assert_eq!(parent.len(), 2 * interp.rows(), "one parent slot");
    assert_eq!(shift.len(), SIBLING_LANES * interp.rows());
    assert_eq!(children, [2 * interp.cols(); 4], "four child slots");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::lagrange_interp_matrix;
    use ffw_numerics::{c64, C64};

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

    /// Four diagonals, sample-major: `[i * 8 + pos * 2 + {re, im}]`.
    fn sample_major(diagonals: &[Vec<C64>]) -> Vec<f64> {
        (0..diagonals[0].len())
            .flat_map(|i| diagonals.iter().flat_map(move |d| [d[i].re, d[i].im]))
            .collect()
    }

    /// `acc + t * s` as the kernels accumulate it: one `f64::mul_add` per
    /// real term, the `re * re` / `re * im` term first. Not `C64::mul_add`,
    /// which rounds every product and every sum.
    fn fused_mac(t: C64, s: C64, acc: C64) -> C64 {
        c64(
            f64::mul_add(-t.im, s.im, f64::mul_add(t.re, s.re, acc.re)),
            f64::mul_add(t.im, s.re, f64::mul_add(t.re, s.im, acc.im)),
        )
    }

    /// Scalar reference of a band row: `sum_j w[j] x[(first + j) mod cols]`
    /// per component, one `f64::mul_add` per tap in `j` order from `acc`.
    fn fused_band_row(interp: &PeriodicBandMatrix, i: usize, x: &[C64], acc: C64) -> C64 {
        let (first, weights) = band_row(interp, i);
        weights.iter().enumerate().fold(acc, |acc, (j, w)| {
            let v = x[(first + j) % x.len()];
            c64(v.re.mul_add(*w, acc.re), v.im.mul_add(*w, acc.im))
        })
    }

    #[test]
    fn translate_is_bit_identical_to_the_fused_pair_order_chain_on_both_paths() {
        // every remainder of the 16 / 8 / 4 / 1 sample blocks, an empty pair list
        for (q, n_pairs, width) in [
            (41, 1, 1),
            (63, 7, 3),
            (99, 27, 8),
            (167, 27, 3),
            (41, 0, 3),
        ] {
            let n_clusters = 30;
            let translators: Vec<Vec<C64>> = (0..49).map(|t| random(q, 100 + t)).collect();
            let translations: Vec<f64> = translators.iter().flat_map(|t| slot(t)).collect();
            // sources[c][b]: cluster-major, columns adjacent
            let patterns: Vec<Vec<C64>> = (0..n_clusters * width)
                .map(|s| random(q, 300 + s as u64))
                .collect();
            let sources: Vec<f64> = patterns.iter().flat_map(|p| slot(p)).collect();
            let pairs: Vec<(u32, u32)> = (0..n_pairs)
                .map(|p| ((p * 7 + 3) % n_clusters as u32, (p * 5 + 2) % 49))
                .collect();

            let mut want = Vec::new();
            for b in 0..width {
                let mut o = vec![C64::ZERO; q];
                for &(src, t) in &pairs {
                    let s = &patterns[src as usize * width + b];
                    for i in 0..q {
                        o[i] = fused_mac(translators[t as usize][i], s[i], o[i]);
                    }
                }
                want.extend(slot(&o));
            }
            let mut got = vec![7.0; width * 2 * q]; // overwritten, not accumulated
            translate(&pairs, &translations, q, &sources, &mut got);
            assert_eq!(got, want, "q = {q}, {n_pairs} pairs, width {width}");

            let mut portable = vec![-1.0; width * 2 * q];
            translate_body(&pairs, &translations, q, &sources, &mut portable);
            assert_eq!(got, portable);
        }
    }

    /// Child and parent samplings with bands that wrap at both ends (the
    /// first and the last parent rows straddle sample 0).
    const SHAPES: [(usize, usize, usize); 3] = [(33, 52, 6), (52, 155, 16), (41, 63, 16)];

    #[test]
    fn interp_shift_is_bit_identical_to_the_fused_tap_and_pos_order_chains_on_both_paths() {
        for (q_child, q, order) in SHAPES {
            let interp = lagrange_interp_matrix(q_child, q, order);
            let wraps = |i: usize| interp.start()[i] as usize + interp.band() > q_child;
            assert!((0..q).any(wraps) && !(0..q).all(wraps));
            let children: Vec<Vec<C64>> = (0..4).map(|p| random(q_child, 10 + p)).collect();
            let shifts: Vec<Vec<C64>> = (0..4).map(|p| random(q, 20 + p)).collect();

            // per parent sample: each child's band sum in tap order, then
            // the four shifted sums in `pos` order from zero
            let want: Vec<C64> = (0..q)
                .map(|i| {
                    (0..4).fold(C64::ZERO, |o, pos| {
                        let t = fused_band_row(&interp, i, &children[pos], C64::ZERO);
                        fused_mac(t, shifts[pos][i], o)
                    })
                })
                .collect();

            let slots: Vec<Vec<f64>> = children.iter().map(|c| slot(c)).collect();
            let slots = [0, 1, 2, 3].map(|pos| slots[pos].as_slice());
            let diagonals = sample_major(&shifts);
            let mut rows = vec![[3.0; SIBLING_LANES]; q_child + q]; // stale scratch
            let mut got = vec![5.0; 2 * q]; // overwritten, not accumulated
            interp_shift(&interp, &diagonals, slots, &mut rows, &mut got);
            assert_eq!(got, slot(&want), "{q_child} -> {q}");

            let mut portable = vec![0.0; 2 * q];
            interp_shift_body(&interp, &diagonals, slots, &mut rows, &mut portable);
            assert_eq!(got, portable);
        }
    }

    #[test]
    fn shift_anterp_is_bit_identical_to_the_fused_shift_and_tap_order_chains_on_both_paths() {
        for (q_child, q, order) in SHAPES {
            let interp = lagrange_interp_matrix(q_child, q, order);
            let alpha = q_child as f64 / q as f64;
            let parent = random(q, 30);
            let shifts: Vec<Vec<C64>> = (0..4).map(|p| random(q, 40 + p)).collect();
            // the children already hold their translated patterns
            let seeded: Vec<Vec<C64>> = (0..4).map(|p| random(q_child, 50 + p)).collect();

            // per child: parent samples in order, each shifted (one fused
            // product per component), scaled, then spread over its band row
            // by one `f64::mul_add` per tap
            let mut want = seeded.clone();
            for pos in 0..4 {
                for i in 0..q {
                    let (g, s) = (parent[i], shifts[pos][i]);
                    let v = c64(
                        f64::mul_add(-g.im, s.im, g.re * s.re) * alpha,
                        f64::mul_add(g.im, s.re, g.re * s.im) * alpha,
                    );
                    let (first, weights) = band_row(&interp, i);
                    for (j, w) in weights.iter().enumerate() {
                        let o = &mut want[pos][(first + j) % q_child];
                        *o = c64(v.re.mul_add(*w, o.re), v.im.mul_add(*w, o.im));
                    }
                }
            }
            let want: Vec<Vec<f64>> = want.iter().map(|c| slot(c)).collect();

            let diagonals = sample_major(&shifts);
            let parent = slot(&parent);
            let run = |portable: bool| {
                let mut slots: Vec<Vec<f64>> = seeded.iter().map(|c| slot(c)).collect();
                let mut rows = vec![[3.0; SIBLING_LANES]; q_child]; // stale scratch
                let [a, b, c, d] = &mut slots[..] else {
                    unreachable!()
                };
                let kids: [&mut [f64]; 4] = [a, b, c, d];
                if portable {
                    shift_anterp_body(&interp, &diagonals, alpha, &parent, &mut rows, kids);
                } else {
                    shift_anterp(&interp, &diagonals, alpha, &parent, &mut rows, kids);
                }
                slots
            };
            let got = run(false);
            assert_eq!(got, want, "{q} -> {q_child}");
            let portable = run(true);
            assert_eq!(got, portable);
        }
    }
}

//! MLFMA setup: precomputes every operator of the paper's Table I.
//!
//! | operator                | structure      | types                      |
//! |-------------------------|----------------|----------------------------|
//! | near-field interactions | block-Toeplitz | 9 x 256-sample spectra     |
//! | multipole expansion     | dense          | 1 (shared by all leaves)   |
//! | interpolations          | band-diagonal  | 1 per level pair           |
//! | multipole shiftings     | diagonal       | 4 per level (child pos.)   |
//! | translations            | diagonal       | 40 per level (offsets)     |
//! | local shiftings         | diagonal       | 4 per level                |
//! | anterpolations          | band-diagonal  | transpose of interpolation |
//! | local expansions        | dense          | adjoint of expansion       |
//!
//! The regular pixel/cluster grid is what makes this reuse possible
//! (Section IV-D): every leaf shares one expansion matrix, every neighbour
//! pair with the same offset shares one near-field operator, and every cluster
//! pair with the same level and offset shares one diagonal translator. The
//! same grid makes each near-field block block-Toeplitz, which [`NearField`]
//! turns into a diagonal product per neighbour, one level below the leaves.
//!
//! Diagonal translator (2-D Rokhlin form): for observation cluster center
//! `Co = Cs + X`,
//! `H0(k|X + d|) ~ (1/Q) sum_q e^{i k khat(a_q) . d} T_L(a_q)` with
//! `T_L(a) = sum_{m=-L}^{L} i^m H_m^(1)(k|X|) e^{i m (a - phi_X)}`,
//! where `d = (r_obs - Co) - (r_src - Cs)`. Radiation patterns therefore carry
//! `e^{-i k khat . (r - C)}` and receive patterns the conjugate phase.

use crate::interp::lagrange_interp_matrix;
use crate::local::{LocalExpansion, MultipoleExpansion};
use crate::near::{near_index, NearField};
use crate::params::Accuracy;
use ffw_geometry::{
    morton_decode, morton_encode, Domain, Offset, QuadTree, LEAF_PIXELS, LEAF_SIDE, NEAR_OFFSETS,
    TOP_LEVEL,
};
use ffw_greens::Kernel;
use ffw_numerics::bessel::hankel1_array;
use ffw_numerics::linalg::{Matrix, PeriodicBandMatrix};
use ffw_numerics::trig::cis_into;
use ffw_numerics::C64;

/// Maps a translation offset to its dense index in `0..49` (7x7 grid of
/// offsets; only the 40 with `max(|dx|,|dy|) >= 2` are populated).
#[inline]
pub fn offset_index(off: Offset) -> usize {
    debug_assert!((-3..=3).contains(&off.0) && (-3..=3).contains(&off.1));
    ((off.1 + 3) as usize) * 7 + (off.0 + 3) as usize
}

/// Number of [`offset_index`] slots.
pub(crate) const OFFSET_SLOTS: usize = 49;

/// Lanes of the sample-major shift tables: four child positions x (re, im).
pub const SIBLING_LANES: usize = 8;

/// Per-level precomputed operators. Diagonals are split re/im planes: a
/// `q`-sample diagonal is `q` re samples followed by `q` im samples.
pub struct LevelPlan {
    /// Tree level (TOP_LEVEL..=leaf).
    pub level: u8,
    /// Clusters per side at this level.
    pub n_side: usize,
    /// Cluster width.
    pub width: f64,
    /// Truncation order L.
    pub l_trunc: usize,
    /// Angular samples Q = 2L + 1.
    pub q: usize,
    /// Diagonal translators: the one for offset `off` occupies
    /// `offset_index(off) * 2q ..` (the nine near slots stay zero).
    pub translations: Vec<f64>,
    /// CSR rows of `pairs`: observer cluster `c` (Morton) owns
    /// `pairs[pair_start[c]..pair_start[c + 1]]`.
    pub pair_start: Vec<u32>,
    /// Every in-bounds far-field interaction as `(source cluster, translator
    /// slot)`, per observer in `QuadTree::interaction_list` order — the
    /// order every engine's bit-identity rests on.
    pub pairs: Vec<(u32, u32)>,
    /// Outgoing (multipole) shifts child -> this level, sampled on this
    /// level's Q and stored sample-major, `[i * 8 + pos * 2 + {re, im}]`, so
    /// the four siblings of one sample are adjacent. Empty at the leaf level.
    pub shift_out: Vec<f64>,
    /// Incoming (local) shifts this level -> child: conjugates of
    /// `shift_out`, same layout.
    pub shift_in: Vec<f64>,
    /// Interpolation from the child sampling to this level's sampling.
    /// `None` at the leaf level.
    pub interp: Option<PeriodicBandMatrix>,
    /// Anterpolation scale `Q_child / Q_this` applied with `interp^T`.
    pub anterp_scale: f64,
}

impl LevelPlan {
    /// The translator of one offset, as its planes `[re; q][im; q]`.
    pub fn translator(&self, off: Offset) -> &[f64] {
        &self.translations[offset_index(off) * 2 * self.q..][..2 * self.q]
    }

    /// The interaction pairs of observer cluster `c`.
    pub fn pairs_of(&self, c: usize) -> &[(u32, u32)] {
        &self.pairs[self.pair_start[c] as usize..self.pair_start[c + 1] as usize]
    }
}

/// The complete MLFMA factorization plan for one domain.
pub struct MlfmaPlan {
    /// The imaging domain.
    pub domain: Domain,
    /// The cluster hierarchy.
    pub tree: QuadTree,
    /// Green's-function kernel constants.
    pub kernel: Kernel,
    /// Accuracy settings used.
    pub accuracy: Accuracy,
    /// Computed levels, `[0]` = TOP_LEVEL, last = leaf.
    pub levels: Vec<LevelPlan>,
    /// Multipole expansion (leaf Q x 64), shared by all leaves.
    pub expansion: MultipoleExpansion,
    /// Local expansion (the weighted adjoint of `expansion`), shared too.
    pub local_expansion: LocalExpansion,
    /// The near-field operator: one spectrum per neighbour offset.
    pub near_field: NearField,
    /// CSR rows of `near_pairs`: observer leaf `c` (Morton) owns
    /// `near_pairs[near_start[c]..near_start[c + 1]]`.
    pub near_start: Vec<u32>,
    /// Every in-bounds near-field neighbour as `(source leaf, position of
    /// its offset in NEAR_OFFSETS)`, per observer in `QuadTree::near_list`
    /// order — the order every engine's bit-identity rests on.
    pub near_pairs: Vec<(u32, u32)>,
}

impl MlfmaPlan {
    /// Builds the plan. The domain side must be `8 * 2^m` pixels, `m >= 2`.
    pub fn new(domain: &Domain, accuracy: Accuracy) -> Self {
        let _span = ffw_obs::span("setup.plan");
        let tree = QuadTree::new(domain);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let k = kernel.k;

        // Per-level truncation first (children needed for interp shapes).
        let level_params: Vec<(u8, usize, usize, f64)> = tree
            .levels()
            .map(|level| {
                let w = tree.cluster_width(level);
                let l = accuracy.truncation(k, w * std::f64::consts::SQRT_2);
                (level, l, Accuracy::samples(l), w)
            })
            .collect();

        let mut levels = Vec::with_capacity(level_params.len());
        for (idx, &(level, l_trunc, q, width)) in level_params.iter().enumerate() {
            // --- translators: 40 offsets ---
            let mut translations = vec![0.0; OFFSET_SLOTS * 2 * q];
            for off in QuadTree::all_interaction_offsets() {
                let x_vec = (-(off.0 as f64) * width, -(off.1 as f64) * width);
                let (re, im) = translations[offset_index(off) * 2 * q..][..2 * q].split_at_mut(q);
                for (qi, t) in translator(k, x_vec, l_trunc, q).into_iter().enumerate() {
                    (re[qi], im[qi]) = (t.re, t.im);
                }
            }

            // --- interaction pairs, once, in list order ---
            let n_side = tree.clusters_per_side(level);
            let n_clusters = n_side * n_side;
            let mut pair_start = Vec::with_capacity(n_clusters + 1);
            let mut pairs = Vec::with_capacity(27 * n_clusters);
            // the four parity classes of a level share their offset lists
            let offsets: Vec<Vec<Offset>> = (0..4u32)
                .map(|parity| match level {
                    TOP_LEVEL => QuadTree::all_interaction_offsets(),
                    _ => QuadTree::interaction_offsets_for_parity(parity & 1, parity >> 1),
                })
                .collect();
            let inside = 0..n_side as i64;
            for c in 0..n_clusters as u32 {
                pair_start.push(pairs.len() as u32);
                let (ix, iy) = morton_decode(c);
                for &(dx, dy) in &offsets[((ix & 1) + 2 * (iy & 1)) as usize] {
                    let (sx, sy) = (ix as i64 + dx as i64, iy as i64 + dy as i64);
                    if inside.contains(&sx) && inside.contains(&sy) {
                        let src = morton_encode(sx as u32, sy as u32);
                        pairs.push((src, offset_index((dx, dy)) as u32));
                    }
                }
            }
            pair_start.push(pairs.len() as u32);

            // --- shifts and interpolation (absent at the leaf level) ---
            let is_leaf = idx + 1 == level_params.len();
            let (shift_out, shift_in, interp, anterp_scale) = if is_leaf {
                (Vec::new(), Vec::new(), None, 0.0)
            } else {
                let (_, _, q_child, _) = level_params[idx + 1];
                let w_child = width * 0.5;
                let mut shift_out = vec![0.0; q * SIBLING_LANES];
                let mut shift_in = vec![0.0; q * SIBLING_LANES];
                let khat = directions(q);
                let mut phase = vec![0.0; q];
                let mut shift = vec![C64::ZERO; q];
                for pos in 0..4usize {
                    // Morton child position: bit 0 = x parity, bit 1 = y parity.
                    let cx = ((pos & 1) as f64 - 0.5) * w_child;
                    let cy = (((pos >> 1) & 1) as f64 - 0.5) * w_child;
                    // e^{-i k khat . (C_child - C_parent)}
                    for (p, d) in phase.iter_mut().zip(&khat) {
                        *p = -k * (d.re * cx + d.im * cy);
                    }
                    cis_into(&phase, &mut shift);
                    for (qi, out) in shift.iter().enumerate() {
                        let at = qi * SIBLING_LANES + pos * 2;
                        (shift_out[at], shift_out[at + 1]) = (out.re, out.im);
                        (shift_in[at], shift_in[at + 1]) = (out.re, -out.im);
                    }
                }
                let interp = lagrange_interp_matrix(q_child, q, accuracy.interp_order);
                (shift_out, shift_in, Some(interp), q_child as f64 / q as f64)
            };

            levels.push(LevelPlan {
                level,
                n_side,
                width,
                l_trunc,
                q,
                translations,
                pair_start,
                pairs,
                shift_out,
                shift_in,
                interp,
                anterp_scale,
            });
        }

        // --- leaf multipole expansion matrix (shared by all leaves) ---
        let leaf = levels.last().expect("at least one level");
        let q_leaf = leaf.q;
        let px = domain.pixel_size();
        let half = LEAF_SIDE as f64 / 2.0;
        let mut entries = Vec::with_capacity(q_leaf * LEAF_PIXELS);
        let mut phase = [0.0; LEAF_PIXELS];
        let mut row = [C64::ZERO; LEAF_PIXELS];
        for d in directions(q_leaf) {
            for (j, p) in phase.iter_mut().enumerate() {
                let lx = (j % LEAF_SIDE) as f64 + 0.5 - half;
                let ly = (j / LEAF_SIDE) as f64 + 0.5 - half;
                // e^{-i k khat . delta}
                *p = -k * (d.re * lx * px + d.im * ly * px);
            }
            cis_into(&phase, &mut row);
            entries.extend_from_slice(&row);
        }
        let expansion = Matrix::from_vec(q_leaf, LEAF_PIXELS, entries);

        let local_expansion = LocalExpansion::new(&expansion, kernel.coupling);
        let near_field = NearField::new(&kernel, px);

        // --- near-field neighbours, once, in list order ---
        let n_leaves = tree.n_leaves();
        let mut near_start = Vec::with_capacity(n_leaves + 1);
        let mut near_pairs = Vec::with_capacity(NEAR_OFFSETS.len() * n_leaves);
        for c in 0..n_leaves as u32 {
            near_start.push(near_pairs.len() as u32);
            let (ix, iy) = morton_decode(c);
            for (sx, sy, off) in tree.near_neighbours(ix as usize, iy as usize) {
                let src = morton_encode(sx as u32, sy as u32);
                near_pairs.push((src, near_index(off) as u32));
            }
        }
        near_start.push(near_pairs.len() as u32);

        MlfmaPlan {
            domain: domain.clone(),
            tree,
            kernel,
            accuracy,
            levels,
            expansion: MultipoleExpansion::new(&expansion),
            local_expansion,
            near_field,
            near_start,
            near_pairs,
        }
    }

    /// The near-field neighbours of observer leaf `c`.
    pub fn near_pairs_of(&self, c: usize) -> &[(u32, u32)] {
        &self.near_pairs[self.near_start[c] as usize..self.near_start[c + 1] as usize]
    }

    /// Leaf-level plan.
    pub fn leaf_plan(&self) -> &LevelPlan {
        self.levels.last().expect("non-empty")
    }

    /// Number of unknowns.
    pub fn n_pixels(&self) -> usize {
        self.tree.n_pixels()
    }

    /// Realized operator census (the paper's Table I).
    pub fn census(&self) -> OperatorCensus {
        OperatorCensus {
            near_field_types: self.near_field.n_offsets(),
            expansion_types: 1,
            interpolation_types: self.levels.len() - 1,
            multipole_shift_types: 4 * (self.levels.len() - 1),
            translation_types_per_level: 40,
            local_shift_types: 4 * (self.levels.len() - 1),
            anterpolation_types: self.levels.len() - 1,
            local_expansion_types: 1,
        }
    }

    /// Work/size statistics per level and phase, consumed by the performance
    /// model (`ffw-perf`) and by the complexity benchmarks.
    pub fn stats(&self) -> PlanStats {
        let cmul = 8.0; // flops per complex multiply-add
        let mut level_stats = Vec::new();
        let mut translation_flops = 0.0;
        let mut aggregation_flops = 0.0;
        let mut disaggregation_flops = 0.0;
        for (idx, lp) in self.levels.iter().enumerate() {
            let n_clusters = lp.n_side * lp.n_side;
            // exact count of in-bounds translation pairs
            let pairs = lp.pairs.len();
            translation_flops += pairs as f64 * lp.q as f64 * cmul;
            if idx + 1 < self.levels.len() {
                let children = 4 * n_clusters;
                // interp (band p) + shift per child
                let per_child =
                    lp.q as f64 * self.accuracy.interp_order as f64 * cmul + lp.q as f64 * cmul;
                aggregation_flops += children as f64 * per_child;
                disaggregation_flops += children as f64 * per_child;
            }
            level_stats.push(LevelStats {
                level: lp.level,
                n_clusters,
                q: lp.q,
                l_trunc: lp.l_trunc,
                translation_pairs: pairs,
            });
        }
        let n_leaves = self.tree.n_leaves();
        let expansion_flops =
            n_leaves as f64 * self.leaf_plan().q as f64 * LEAF_PIXELS as f64 * cmul;
        let nearfield_flops =
            self.near_pairs.len() as f64 * (LEAF_PIXELS * LEAF_PIXELS) as f64 * cmul;
        PlanStats {
            n_pixels: self.n_pixels(),
            interp_band: self.accuracy.interp_order,
            n_leaves,
            levels: level_stats,
            expansion_flops,
            local_expansion_flops: expansion_flops,
            aggregation_flops,
            translation_flops,
            disaggregation_flops,
            nearfield_flops,
        }
    }
}

/// Realized operator counts (paper Table I).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorCensus {
    /// Dense near-field matrices.
    pub near_field_types: usize,
    /// Dense multipole expansion matrices.
    pub expansion_types: usize,
    /// Band-diagonal interpolation matrices (one per level pair).
    pub interpolation_types: usize,
    /// Diagonal outgoing shift vectors.
    pub multipole_shift_types: usize,
    /// Diagonal translators per level.
    pub translation_types_per_level: usize,
    /// Diagonal incoming shift vectors.
    pub local_shift_types: usize,
    /// Band-diagonal anterpolation operators (transposes).
    pub anterpolation_types: usize,
    /// Dense local expansion matrices (adjoint of expansion).
    pub local_expansion_types: usize,
}

/// Per-level structural statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// Tree level.
    pub level: u8,
    /// Clusters at this level.
    pub n_clusters: usize,
    /// Angular samples per cluster.
    pub q: usize,
    /// Truncation order.
    pub l_trunc: usize,
    /// Total in-bounds translation pairs.
    pub translation_pairs: usize,
}

/// Whole-plan work statistics (flops per MLFMA matvec, by phase) in the
/// paper's dense model: full `Q x 64` leaf products, eight flops per band tap,
/// one `64 x 64` block per near pair. This is what `ffw-perf` scales to the
/// paper's machines and what the complexity benchmarks plot; what this
/// crate's kernels execute (half the leaf products by their conjugate
/// symmetry, real band weights, the block-Toeplitz near field) is charged by
/// the engine's `mlfma.flops.*` / `mlfma.bytes.*` counters instead.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Unknowns.
    pub n_pixels: usize,
    /// Lagrange interpolation band width used by the plan.
    pub interp_band: usize,
    /// Leaf clusters.
    pub n_leaves: usize,
    /// Per-level stats, top first.
    pub levels: Vec<LevelStats>,
    /// Multipole expansion flops.
    pub expansion_flops: f64,
    /// Local expansion flops.
    pub local_expansion_flops: f64,
    /// Aggregation (interp + shift) flops.
    pub aggregation_flops: f64,
    /// Translation flops.
    pub translation_flops: f64,
    /// Disaggregation flops.
    pub disaggregation_flops: f64,
    /// Near-field flops (one 64 x 64 block per neighbour pair): `ffw-perf`'s
    /// model of the GPU near field and Table III.
    pub nearfield_flops: f64,
}

impl PlanStats {
    /// Total flops for one MLFMA matvec.
    pub fn total_flops(&self) -> f64 {
        self.expansion_flops
            + self.local_expansion_flops
            + self.aggregation_flops
            + self.translation_flops
            + self.disaggregation_flops
            + self.nearfield_flops
    }
}

/// The `q` plane-wave directions `khat(a) = cos a + i sin a`,
/// `a = 2 pi qi / q`, through the lane-wise sine and cosine.
fn directions(q: usize) -> Vec<C64> {
    let angles: Vec<f64> = (0..q)
        .map(|qi| 2.0 * std::f64::consts::PI * qi as f64 / q as f64)
        .collect();
    let mut khat = vec![C64::ZERO; q];
    cis_into(&angles, &mut khat);
    khat
}

/// Builds one translator diagonal (the plan's own; also exposed for the
/// accuracy ablation benchmark, which sweeps L independently of the plan).
/// Each sample's `L` cosines `cos(m theta)` come from one lane-wise
/// [`cis_into`] call.
pub fn translator(k: f64, x_vec: (f64, f64), l_trunc: usize, q: usize) -> Vec<C64> {
    let dist = x_vec.0.hypot(x_vec.1);
    let phi_x = x_vec.1.atan2(x_vec.0);
    let h = hankel1_array(l_trunc, k * dist);
    // i^m H_m: the weight of 2 cos(m theta), m >= 1
    let weights: Vec<C64> = (1..h.len()).map(|m| C64::i_pow(m as i64) * h[m]).collect();
    let mut angles = vec![0.0; weights.len()];
    let mut phasors = vec![C64::ZERO; weights.len()];
    (0..q)
        .map(|qi| {
            let theta = 2.0 * std::f64::consts::PI * qi as f64 / q as f64 - phi_x;
            for (m, a) in (1..).zip(angles.iter_mut()) {
                *a = m as f64 * theta;
            }
            cis_into(&angles, &mut phasors);
            let mut acc = h[0];
            for (&w, p) in weights.iter().zip(&phasors) {
                acc += w * (2.0 * p.re);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::bessel::hankel1_0;

    fn small_plan() -> MlfmaPlan {
        MlfmaPlan::new(&Domain::new(32, 1.0), Accuracy::default())
    }

    #[test]
    fn table1_census() {
        let plan = MlfmaPlan::new(&Domain::new(64, 1.0), Accuracy::default());
        let c = plan.census();
        assert_eq!(c.near_field_types, 9);
        assert_eq!(c.expansion_types, 1);
        assert_eq!(c.translation_types_per_level, 40);
        assert_eq!(c.multipole_shift_types, 4 * (plan.levels.len() - 1));
        // every level has all 40 translators realized
        for lp in &plan.levels {
            let realized = QuadTree::all_interaction_offsets()
                .into_iter()
                .filter(|&off| lp.translator(off).iter().any(|v| *v != 0.0))
                .count();
            assert_eq!(realized, 40, "level {}", lp.level);
            assert_eq!(lp.translations.len(), OFFSET_SLOTS * 2 * lp.q);
        }
    }

    /// The fundamental identity: the diagonal translator applied to unit
    /// source/receive patterns reproduces H0^(1)(k |X + d|) to the target
    /// accuracy, for the closest (hardest) offset (2, 0).
    #[test]
    fn translator_reproduces_h0() {
        let plan = small_plan();
        let leaf = plan.leaf_plan();
        let k = plan.kernel.k;
        let w = leaf.width;
        let q = leaf.q;
        let (t_re, t_im) = leaf.translator((2, 0)).split_at(q);
        // source at Cs + ds, obs at Co + do; offset (2,0): Cs = Co + (2w, 0)
        // Tolerance depends on how close the pair sits to the separation
        // boundary: the cluster-corner worst case of the one-buffer scheme is
        // the known accuracy-limiting configuration; interior points are far
        // more accurate. The *matvec-level* 1e-5 budget is verified separately
        // against the direct product (engine tests).
        for (dox, doy, dsx, dsy, tol) in [
            (0.0, 0.0, 0.0, 0.0, 1e-7),
            (0.35 * w, -0.4 * w, -0.3 * w, 0.45 * w, 1e-5),
            (-0.49 * w, 0.49 * w, 0.49 * w, -0.49 * w, 2e-3), // corner worst case
        ] {
            let dx = dox - dsx - 2.0 * w;
            let dy = doy - dsy;
            let exact = hankel1_0(k * dx.hypot(dy));
            let mut acc = C64::ZERO;
            for qi in 0..q {
                let tq = ffw_numerics::c64(t_re[qi], t_im[qi]);
                let a = 2.0 * std::f64::consts::PI * qi as f64 / q as f64;
                // e^{i k khat . d}, d = (do - ds) relative to centers:
                let d_dot = a.cos() * (dox - dsx) + a.sin() * (doy - dsy);
                // plus the center-to-center phase is inside T via X
                acc += C64::cis(k * d_dot) * tq;
            }
            acc = acc / q as f64;
            let err = (acc - exact).abs() / exact.abs();
            assert!(err < tol, "err = {err:e} at ({dox},{doy},{dsx},{dsy})");
        }
    }

    /// The pair table is `QuadTree::interaction_list`, cluster by cluster
    /// and in its order (the plan builds it from the four per-parity offset
    /// lists of a level instead of one list per cluster).
    #[test]
    fn pair_table_is_the_tree_interaction_lists() {
        let plan = MlfmaPlan::new(&Domain::new(128, 1.0), Accuracy::low());
        for lp in &plan.levels {
            for c in 0..lp.n_side * lp.n_side {
                let (ix, iy) = morton_decode(c as u32);
                let want: Vec<(u32, u32)> = plan
                    .tree
                    .interaction_list(lp.level, ix as usize, iy as usize)
                    .into_iter()
                    .map(|(sx, sy, off)| {
                        (
                            morton_encode(sx as u32, sy as u32),
                            offset_index(off) as u32,
                        )
                    })
                    .collect();
                assert_eq!(lp.pairs_of(c), want, "level {} cluster {c}", lp.level);
            }
        }
    }

    /// Likewise the near table against `QuadTree::near_list`, leaf by leaf.
    #[test]
    fn near_table_is_the_tree_near_lists() {
        let plan = MlfmaPlan::new(&Domain::new(128, 1.0), Accuracy::low());
        assert_eq!(plan.near_start.len(), plan.tree.n_leaves() + 1);
        for c in 0..plan.tree.n_leaves() {
            let (ix, iy) = morton_decode(c as u32);
            let want: Vec<(u32, u32)> = plan
                .tree
                .near_list(ix as usize, iy as usize)
                .into_iter()
                .map(|(sx, sy, off)| {
                    let at = NEAR_OFFSETS.iter().position(|o| *o == off);
                    (morton_encode(sx as u32, sy as u32), at.unwrap() as u32)
                })
                .collect();
            assert_eq!(plan.near_pairs_of(c), want, "leaf {c}");
        }
        assert_eq!(plan.near_pairs_of(0).len(), 4, "a corner leaf");
    }

    #[test]
    fn shifts_are_unit_modulus_conjugate_pairs() {
        let plan = small_plan();
        for lp in &plan.levels[..plan.levels.len() - 1] {
            assert_eq!(lp.shift_out.len(), lp.q * SIBLING_LANES);
            let pairs = lp
                .shift_out
                .chunks_exact(2)
                .zip(lp.shift_in.chunks_exact(2));
            for (o, i) in pairs {
                assert!((o[0].hypot(o[1]) - 1.0).abs() < 1e-12);
                assert_eq!((o[0], -o[1]), (i[0], i[1]));
            }
        }
        assert!(plan.leaf_plan().shift_out.is_empty());
    }

    #[test]
    fn expansion_matrix_shape_and_modulus() {
        let plan = small_plan();
        let e = &plan.expansion;
        assert_eq!(e.q(), plan.leaf_plan().q);
        for q in 0..e.q() {
            for j in 0..LEAF_PIXELS {
                assert!((e.at(q, j).abs() - 1.0).abs() < 1e-12);
            }
        }
    }

    /// The leaf kernels keep half the expansion matrix and rebuild the rest
    /// from `E[r, 63 - k] == conj(E[r, k])`; their constructors panic on a
    /// matrix without it. Every leaf operator the ladder and the hop stages
    /// build gets past them, so a change to pixel centring fails at plan
    /// build, not as a wrong image.
    #[test]
    fn every_leaf_expansion_is_conjugate_symmetric_about_the_leaf_centre() {
        for n_px in [64, 128, 256, 512] {
            for acc in [Accuracy::default(), Accuracy::low(), Accuracy::high()] {
                for hop_factor in [1.0, 2.0] {
                    let pixel = Domain::new(n_px, 1.0).pixel_size();
                    let domain = Domain::with_pixel_size(n_px, hop_factor, pixel);
                    let plan = MlfmaPlan::new(&domain, acc);
                    assert_eq!(plan.expansion.q(), plan.leaf_plan().q);
                }
            }
        }
    }

    #[test]
    fn stats_are_order_n() {
        // Total flops per unknown should be roughly constant across sizes:
        // O(N) complexity (paper Section III-C).
        let acc = Accuracy::default();
        let f1 = MlfmaPlan::new(&Domain::new(64, 1.0), acc).stats();
        let f2 = MlfmaPlan::new(&Domain::new(256, 1.0), acc).stats();
        let per1 = f1.total_flops() / f1.n_pixels as f64;
        let per2 = f2.total_flops() / f2.n_pixels as f64;
        assert!(
            per2 / per1 < 1.6,
            "flops per unknown should stay ~constant: {per1:.0} -> {per2:.0}"
        );
    }

    #[test]
    fn q_decreases_toward_leaves() {
        let plan = MlfmaPlan::new(&Domain::new(128, 1.0), Accuracy::default());
        for w in plan.levels.windows(2) {
            assert!(w[0].q > w[1].q, "coarser level needs more samples");
        }
    }
}

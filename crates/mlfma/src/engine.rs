//! The four-phase MLFMA matrix-vector product (paper Section III-B):
//! aggregation, translation, disaggregation, near field.
//!
//! Input and output vectors are in *tree order* (leaves in Morton order,
//! row-major within a leaf — see `ffw_geometry::QuadTree`). The product
//! computed is the full discretized Green's operator `y = G0 x`, including
//! near-field self terms, with `O(N)` work and storage.
//!
//! There is one traversal, [`crate::farfield::FarField`]'s, and this engine
//! runs it over the whole tree. [`MlfmaEngine::apply_block`] folds the
//! paper's illumination dimension into it: a panel of `B` right-hand sides
//! shares one pass over the far-field operators (expansion planes,
//! interpolators, shift and translation diagonals), one `ffw_par::Pool` task
//! per cluster (the paper's Section IV-C switches levels with few clusters
//! to sample parallelism instead; see DESIGN.md §1 for why that schedule was
//! retired). [`MlfmaEngine::apply`] is the same traversal at panel width 1.
//! Columns never mix and every kernel sums its terms in one fixed order by
//! explicit `f64::mul_add` chains ([`crate::kernels`], [`crate::local`],
//! [`crate::near`]), so a column's output is bit-identical at every panel
//! width and thread count, with or without the `avx2,fma` instances; the
//! near field runs one column at a time over the plan's neighbour table.
//!
//! `G0 0 = 0`: a column that is identically zero (the whole first DBIM
//! iteration multiplies `G0` by `O x` with `O = 0`) gets `+0.0` written to
//! its output and stays out of the traversal. So does a leaf that is zero in
//! every column (`O x` outside the scatterer): it is not radiated and has no
//! spectrum, a cluster with four such children is not interpolated, their
//! slots are `+0.0`, and no translation or near-field product reads them.
//! The bits hold: every accumulator starts at `+0.0` and sums by
//! `f64::mul_add` chains, which a `±0` term leaves as they are. One scan per
//! panel, each leaf up to its first non-zero word, finds both.

use crate::farfield::FarField;
use crate::near::{FORWARD_FLOPS, INVERSE_FLOPS, PAIR_FLOPS, SPECTRUM_LEN};
use crate::plan::MlfmaPlan;
use ffw_geometry::{LEAF_PIXELS, NEAR_OFFSETS};
use ffw_numerics::C64;
use ffw_par::Pool;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// Per-apply work model for one MLFMA stage: flops (8 per complex
/// multiply-add), bytes of pattern/field data moved per column and bytes of
/// operator data streamed per traversal. Computed from the plan and the live
/// clusters, charged to `ffw_obs` counters per apply.
#[derive(Clone, Copy, Default)]
struct StageCost {
    flops: u64,
    bytes: u64,
    /// Bytes of *operator* data — charged once per apply whatever its width,
    /// which is where the panel path's arithmetic-intensity win shows up in
    /// the model.
    op_bytes: u64,
}

/// Cached observability handles + the cost of an all-live apply (so the
/// hot path is a handful of relaxed atomic adds, no registry lookups).
struct ObsHooks {
    applies: ffw_obs::Counter,
    block_applies: ffw_obs::Counter,
    zero_columns: ffw_obs::Counter,
    leaves_skipped: ffw_obs::Counter,
    panel_width: ffw_obs::Histogram,
    flops: [ffw_obs::Counter; 4],
    bytes: [ffw_obs::Counter; 4],
    all_live: [StageCost; 4],
}

const STAGES: [&str; 4] = ["aggregate", "translate", "disaggregate", "near"];

impl ObsHooks {
    fn new(plan: &MlfmaPlan) -> Self {
        ObsHooks {
            applies: ffw_obs::counter("mlfma.applies"),
            block_applies: ffw_obs::counter("mlfma.block_applies"),
            zero_columns: ffw_obs::counter("mlfma.zero_columns"),
            leaves_skipped: ffw_obs::counter("mlfma.leaves_skipped"),
            panel_width: ffw_obs::histogram("mlfma.panel_width"),
            flops: STAGES.map(|s| ffw_obs::counter(&format!("mlfma.flops.{s}"))),
            bytes: STAGES.map(|s| ffw_obs::counter(&format!("mlfma.bytes.{s}"))),
            all_live: apply_cost(plan, |_, _| true),
        }
    }

    /// Charges a `width`-column apply of which the panel of `far` is
    /// traversed: `mlfma.applies` advances by one *per column asked for* (so
    /// "applies" counts matvecs at any batching, as callers count them from
    /// outside), pattern flops/bytes scale with the traversed columns and
    /// the live clusters, and operator bytes are charged once per traversal
    /// — that is the fused traversal's whole point. No-op while the recorder
    /// is off.
    fn charge_apply(&self, plan: &MlfmaPlan, width: u64, far: &FarField) {
        if !ffw_obs::enabled() {
            return;
        }
        let live = far.columns().len() as u64;
        self.applies.add(width);
        self.block_applies.inc();
        self.panel_width.record(width);
        self.zero_columns.add(width - live);
        if live == 0 {
            return;
        }
        let leaves = far.live(plan.levels.len() - 1);
        let skipped = leaves.iter().filter(|&&l| !l).count() as u64;
        self.leaves_skipped.add(skipped);
        let cost = match skipped {
            0 => self.all_live,
            _ => apply_cost(plan, |li, c| far.live(li)[c]),
        };
        for (i, cost) in cost.iter().enumerate() {
            self.flops[i].add(cost.flops * live);
            self.bytes[i].add(cost.bytes * live + cost.op_bytes);
        }
    }
}

/// Bytes of one leaf spectrum.
const SPECTRUM_BYTES: u64 = 8 * SPECTRUM_LEN as u64;

/// Children per parent: what one band tap or one shift entry is applied to.
const SIBLINGS: u64 = 4;

/// Flops of one leaf operator on one leaf, either direction (`crate::local`):
/// per sample and mirrored pixel pair four real products and four additions,
/// plus the 64 complex additions that form the pair sums and differences
/// (radiate) or split the four sums into the two pixels (receive).
fn leaf_operator_flops(q_leaf: u64) -> u64 {
    let pairs = LEAF_PIXELS as u64 / 2;
    q_leaf * pairs * 8 + LEAF_PIXELS as u64 * 2
}

/// Flops of one upward or downward step for one parent (`crate::kernels`):
/// per parent sample, `band` taps of one real weight on four complex
/// siblings (two products and two additions each) and four complex
/// multiply-adds by the shift diagonals — the downward pass spends the same
/// eight flops per sibling on the product and the `alpha` scaling.
fn band_step_flops(q_parent: u64, band: u64) -> u64 {
    q_parent * SIBLINGS * (band * 4 + 8)
}

/// Builds the per-stage cost model from the plan and `live(li, c)`, whether
/// cluster `c` at level index `li` is live, counting what the kernels
/// execute: flops as above (a complex multiply-add is 8), pattern bytes as
/// the data each stage reads and writes (16 bytes per `C64`), operator bytes
/// as the half of the leaf expansion matrix each leaf operator keeps, per
/// parent sample the band row (`band` weights and its first column) and the
/// four shift entries, one translation diagonal per interaction-list entry.
///
/// Aggregation runs for live clusters only, translation for the pairs from
/// a live source, the near field's spectra and products for live source
/// leaves; every observer is written and every leaf receives.
fn apply_cost(plan: &MlfmaPlan, live: impl Fn(usize, usize) -> bool) -> [StageCost; 4] {
    const C: u64 = 16; // bytes per C64
    const W: u64 = 8; // bytes per interpolation weight (f64)
    const START: u64 = 4; // bytes per band row's first column (u32)
    let n_levels = plan.levels.len();
    let leaf = plan.leaf_plan();
    let n_leaves = (leaf.n_side * leaf.n_side) as u64;
    let n_live = |li: usize| {
        (0..plan.levels[li].n_side.pow(2))
            .filter(|&c| live(li, c))
            .count()
    };
    let live_leaves = n_live(n_levels - 1) as u64;
    let live_pairs = |li: usize, pairs: &[(u32, u32)]| {
        pairs.iter().filter(|(s, _)| live(li, *s as usize)).count() as u64
    };
    let q_leaf = leaf.q as u64;
    let npx = LEAF_PIXELS as u64;
    let leaf_matrix = q_leaf * (npx / 2) * C;

    // aggregate: leaf expansions + upward interp/shift per non-leaf level;
    // disaggregate: its mirror (shift + anterpolate)
    let mut agg = StageCost {
        flops: live_leaves * leaf_operator_flops(q_leaf),
        bytes: live_leaves * (npx + q_leaf) * C,
        op_bytes: live_leaves * leaf_matrix,
    };
    let mut dis = StageCost::default();
    for li in 0..n_levels.saturating_sub(1) {
        let lp = &plan.levels[li];
        let n_parents = (lp.n_side * lp.n_side) as u64;
        let live_parents = n_live(li) as u64;
        let q_parent = lp.q as u64;
        let q_child = plan.levels[li + 1].q as u64;
        let band = lp.interp.as_ref().expect("non-leaf has interp").band() as u64;
        let step_flops = band_step_flops(q_parent, band);
        let per_parent = q_parent * (band * W + START + SIBLINGS * C);
        agg.flops += live_parents * step_flops;
        agg.bytes += live_parents * (SIBLINGS * q_child + q_parent) * C;
        agg.op_bytes += live_parents * per_parent;
        dis.flops += n_parents * step_flops;
        dis.bytes += n_parents * (q_parent + SIBLINGS * q_child) * C;
        dis.op_bytes += n_parents * per_parent;
    }

    // translate: one diagonal MAC per interaction-list entry per sample, the
    // observer's slot written once
    let mut tra = StageCost::default();
    for (li, lp) in plan.levels.iter().enumerate() {
        let q = lp.q as u64;
        let n_pairs = live_pairs(li, &lp.pairs);
        tra.flops += n_pairs * q * 8;
        tra.bytes += (n_pairs * q + (lp.n_side * lp.n_side) as u64 * q) * C;
        tra.op_bytes += n_pairs * q * C;
    }

    // near: leaf local expansion with its 64 products by the weight, then per
    // live leaf one forward and per leaf one inverse 16 x 16 transform and
    // one 256-sample diagonal product per live neighbour
    let n_near = live_pairs(n_levels - 1, &plan.near_pairs);
    let mut near = StageCost {
        flops: n_leaves * (leaf_operator_flops(q_leaf) + npx * 6),
        bytes: n_leaves * (q_leaf + npx) * C,
        // the local expansion matrix per leaf (the kernel spectra are
        // charged per column)
        op_bytes: n_leaves * leaf_matrix,
    };
    near.flops += live_leaves * FORWARD_FLOPS + n_leaves * INVERSE_FLOPS + n_near * PAIR_FLOPS;
    // pixels in and spectrum out per live leaf; source and kernel spectrum
    // in per live neighbour (the kernel spectra are read per column, not per
    // panel); window added onto the pixels per leaf
    near.bytes += live_leaves * (npx * C + SPECTRUM_BYTES)
        + n_near * 2 * SPECTRUM_BYTES
        + n_leaves * 2 * npx * C;

    [agg, tra, dis, near]
}

/// Reusable MLFMA matvec engine.
pub struct MlfmaEngine {
    plan: Arc<MlfmaPlan>,
    pool: Arc<Pool>,
    far: Mutex<FarField>,
    /// Every cluster of every level: what the traversal runs over.
    ranges: Vec<Range<usize>>,
    /// One column of leaf spectra for the near field (`n_leaves` x
    /// [`SPECTRUM_LEN`]) — never one per panel column.
    near_spectra: Mutex<Vec<f64>>,
    obs: ObsHooks,
}

impl MlfmaEngine {
    /// Creates an engine bound to a plan and a thread pool.
    pub fn new(plan: Arc<MlfmaPlan>, pool: Arc<Pool>) -> Self {
        let near_spectra = Mutex::new(vec![0.0; plan.tree.n_leaves() * SPECTRUM_LEN]);
        let obs = ObsHooks::new(&plan);
        MlfmaEngine {
            far: Mutex::new(FarField::new(Arc::clone(&plan))),
            ranges: FarField::full_ranges(&plan),
            plan,
            pool,
            near_spectra,
            obs,
        }
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &MlfmaPlan {
        &self.plan
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.plan.n_pixels()
    }

    /// Computes `y = G0 x` (both in tree order) in `O(N)`: the traversal of
    /// [`Self::apply_block`] at panel width 1.
    pub fn apply(&self, x: &[C64], y: &mut [C64]) {
        self.apply_panel(&[x], &mut [y]);
    }

    /// Computes `ys[b] = G0 xs[b]` for a panel of `B` right-hand sides in a
    /// *single* tree traversal: every expansion plane, interpolator and
    /// shift/translation diagonal is loaded once per cluster and applied to
    /// all columns of the panel. The leaf receive and the near field then
    /// run column by column, straight into `ys`.
    ///
    /// Columns never mix (same operations, in the same order, at every
    /// width), so each `ys[b]` is bit-identical whatever panel `xs[b]` rides
    /// in — alone included. An all-zero `xs[b]` is answered with `+0.0`
    /// without being traversed.
    pub fn apply_block(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) {
        let mut ys: Vec<&mut [C64]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        self.apply_panel(xs, &mut ys);
    }

    /// The one traversal behind [`Self::apply`] and [`Self::apply_block`].
    fn apply_panel(&self, xs: &[&[C64]], ys: &mut [&mut [C64]]) {
        let width = xs.len();
        assert_eq!(ys.len(), width, "block width mismatch");
        if width == 0 {
            return;
        }
        let n = self.n();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert_eq!(x.len(), n);
            assert_eq!(y.len(), n);
        }
        let _apply = ffw_obs::span("mlfma.apply");
        let mut far = self.far.lock();
        far.begin(&self.ranges, xs, 0, false);
        self.obs.charge_apply(&self.plan, width as u64, &far);
        let live = far.columns();
        for (b, y) in ys.iter_mut().enumerate() {
            if !live.contains(&b) {
                y.fill(C64::ZERO);
            }
        }
        if live.is_empty() {
            return;
        }
        far.aggregate(&self.pool, &self.ranges, xs, 0);
        far.translate(&self.pool, &self.ranges);
        far.disaggregate(&self.pool, &self.ranges);
        let _s = ffw_obs::span("near");
        for (col, &b) in far.columns().iter().enumerate() {
            self.receive_and_near(xs[b], &far, col, ys[b]);
        }
    }

    /// Phases 5+6 for column `col` of the panel in `far`: convert leaf local
    /// expansions back to fields (local expansion = quadrature-weighted
    /// adjoint of the multipole expansion) and add the near-field
    /// interactions. Per column the work is the same whatever the panel
    /// width — the spectra of `x`'s leaves first, then per observer leaf the
    /// local expansion and the neighbours' diagonal products in `near_list`
    /// order.
    fn receive_and_near(&self, x: &[C64], far: &FarField, col: usize, y: &mut [C64]) {
        let plan = &self.plan;
        let near = &plan.near_field;
        let leaf_li = plan.levels.len() - 1;
        let live = far.live(leaf_li);
        let mut spectra = self.near_spectra.lock();
        self.pool
            .for_each_chunk_mut(&mut spectra, 8 * SPECTRUM_LEN, |start, chunk| {
                let first_leaf = start / SPECTRUM_LEN;
                for (i, spectrum) in chunk.chunks_mut(SPECTRUM_LEN).enumerate() {
                    let c = first_leaf + i;
                    if live[c] {
                        near.forward(&x[c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS], spectrum);
                    }
                }
            });
        let spectra = &*spectra;
        self.pool.for_each_chunk_mut(y, LEAF_PIXELS, |start, out| {
            let c = start / LEAF_PIXELS;
            far.receive(c, col, out);
            let spectrum_of = |s: usize| &spectra[s * SPECTRUM_LEN..(s + 1) * SPECTRUM_LEN];
            let mut kept = [(0, 0); NEAR_OFFSETS.len()];
            let pairs = far.live_pairs(leaf_li, plan.near_pairs_of(c), &mut kept);
            near.accumulate(pairs, spectrum_of, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Accuracy;
    use ffw_geometry::Domain;
    use ffw_greens::{tree_positions, DirectG0};
    use ffw_numerics::c64;
    use ffw_numerics::vecops::rel_diff;

    fn random_x(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                c64(a, b)
            })
            .collect()
    }

    fn engine(n_px: usize, acc: Accuracy, threads: usize) -> (MlfmaEngine, Domain) {
        let domain = Domain::new(n_px, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, acc));
        (MlfmaEngine::new(plan, Arc::new(Pool::new(threads))), domain)
    }

    fn direct_reference(domain: &Domain, x: &[C64]) -> Vec<C64> {
        let tree = ffw_geometry::QuadTree::new(domain);
        let pos = tree_positions(domain, &tree);
        let kernel = ffw_greens::Kernel::new(domain.k0(), domain.equivalent_radius());
        let mut y = vec![C64::ZERO; x.len()];
        DirectG0::new(kernel, &pos).apply(x, &mut y);
        y
    }

    /// The headline correctness property: MLFMA matches the direct O(N^2)
    /// product to the paper's 1e-5 budget, on a 2-level tree (32x32).
    #[test]
    fn matches_direct_two_levels() {
        let (eng, domain) = engine(32, Accuracy::default(), 2);
        let x = random_x(eng.n(), 42);
        let mut y = vec![C64::ZERO; eng.n()];
        eng.apply(&x, &mut y);
        let y_ref = direct_reference(&domain, &x);
        let err = rel_diff(&y, &y_ref);
        assert!(err < 1e-5, "relative error {err:e}");
    }

    /// Three levels exercises interpolation/anterpolation and both shift
    /// directions (64x64 = 4096 unknowns).
    #[test]
    fn matches_direct_three_levels() {
        let (eng, domain) = engine(64, Accuracy::default(), 3);
        let x = random_x(eng.n(), 7);
        let mut y = vec![C64::ZERO; eng.n()];
        eng.apply(&x, &mut y);
        let y_ref = direct_reference(&domain, &x);
        let err = rel_diff(&y, &y_ref);
        assert!(err < 1e-5, "relative error {err:e}");
    }

    #[test]
    fn low_accuracy_still_reasonable_and_cheaper() {
        let (eng, domain) = engine(32, Accuracy::low(), 1);
        let x = random_x(eng.n(), 3);
        let mut y = vec![C64::ZERO; eng.n()];
        eng.apply(&x, &mut y);
        let y_ref = direct_reference(&domain, &x);
        let err = rel_diff(&y, &y_ref);
        assert!(err < 1e-2, "low accuracy error {err:e}");
        assert!(err > 1e-9, "low accuracy should not be exact");
    }

    #[test]
    fn linear_in_input() {
        let (eng, _) = engine(32, Accuracy::low(), 2);
        let n = eng.n();
        let x1 = random_x(n, 1);
        let x2 = random_x(n, 2);
        let alpha = c64(0.3, -0.8);
        let combo: Vec<C64> = x1.iter().zip(&x2).map(|(a, b)| *a + alpha * *b).collect();
        let mut y1 = vec![C64::ZERO; n];
        let mut y2 = vec![C64::ZERO; n];
        let mut yc = vec![C64::ZERO; n];
        eng.apply(&x1, &mut y1);
        eng.apply(&x2, &mut y2);
        eng.apply(&combo, &mut yc);
        let expect: Vec<C64> = y1.iter().zip(&y2).map(|(a, b)| *a + alpha * *b).collect();
        assert!(rel_diff(&yc, &expect) < 1e-12);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let x = random_x(plan.n_pixels(), 11);
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let eng = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(threads)));
            let mut y = vec![C64::ZERO; plan.n_pixels()];
            eng.apply(&x, &mut y);
            outputs.push(y);
        }
        // a task is a whole cluster and no reduction crosses tasks: the
        // partition cannot reach the bits
        assert_eq!(outputs[1], outputs[0]);
        assert_eq!(outputs[2], outputs[0]);
    }

    /// The `mlfma.flops.*` / `mlfma.bytes.*` charges are a pure function of
    /// the plan and the live clusters: per stage (aggregate, translate,
    /// disaggregate, near) the flops and pattern bytes of one column and the
    /// operator bytes of one traversal. At 64 x 64 (64 leaves of q = 41 under
    /// 16 parents of q = 63, band 16; 156 + 1116 translation pairs, 484 near
    /// pairs), all live:
    ///
    /// * one leaf operator: 41 x 32 pairs x 8 + 64 x 2 = 10 624 flops over
    ///   41 x 32 x 16 = 20 992 matrix bytes;
    /// * one parent, either direction: 63 x 4 x (16 x 4 + 8) = 18 144 flops
    ///   over 63 x (16 x 8 + 4 + 4 x 16) = 12 348 operator bytes;
    /// * aggregate = 64 x 10 624 + 16 x 18 144, disaggregate = 16 x 18 144,
    ///   translate = (156 x 63 + 1116 x 41) x 8 flops and x 16 bytes;
    /// * near = 64 x (10 624 + 64 x 6) + 64 x (3744 + 4256) + 484 x 2048.
    ///
    /// With only corner leaf 0 live (and so its parent): aggregate = 10 624 +
    /// 18 144, translate = (12 x 63 + 12 x 41) x 8 for the top and leaf pairs
    /// that read cluster 0, disaggregate as before, and near = 64 x (10 624 +
    /// 384 + 4256) + 3744 + 4 x 2048 for its one spectrum and the 4 pairs
    /// that read it.
    #[test]
    fn per_apply_charges_are_pinned() {
        let pinned = [
            (
                64,
                [970_240u64, 444_672, 290_304, 2_207_744],
                [165_632u64, 947_456, 58_112, 4_531_200],
                [1_541_056u64, 889_344, 197_568, 1_343_488],
            ),
            (
                256,
                [18_118_144, 12_135_360, 7_239_168, 37_560_320],
                [3_153_664, 25_344_640, 1_433_344, 81_444_864],
                [26_422_464, 24_270_720, 4_926_656, 21_495_808],
            ),
        ];
        let costs = |plan: &MlfmaPlan, live: fn(usize, usize) -> bool| {
            let cost = apply_cost(plan, live);
            [0, 1, 2].map(|k| cost.map(|c| [c.flops, c.bytes, c.op_bytes][k]))
        };
        for (n_px, flops, bytes, op_bytes) in pinned {
            let plan = MlfmaPlan::new(&Domain::new(n_px, 1.0), Accuracy::default());
            let want = [flops, bytes, op_bytes];
            assert_eq!(costs(&plan, |_, _| true), want, "{n_px}");
        }
        let plan = MlfmaPlan::new(&Domain::new(64, 1.0), Accuracy::default());
        let sparse = [
            [28_768u64, 9_984, 290_304, 988_832],
            [5_312, 78_080, 58_112, 276_480],
            [33_340, 19_968, 197_568, 1_343_488],
        ];
        assert_eq!(costs(&plan, |_, c| c == 0), sparse);
    }

    /// The column map of a panel with zero columns, at the smallest tree the
    /// plan accepts (this one runs under Miri): the live columns land in the
    /// leaf-expansion kernel's slots in panel order and come out as they do
    /// alone; the zero columns come out `+0.0`.
    #[test]
    fn zero_columns_are_skipped_and_their_neighbours_unmoved() {
        let (eng, _) = engine(32, Accuracy::low(), 1);
        let n = eng.n();
        let xs = [
            vec![C64::ZERO; n],
            random_x(n, 61),
            vec![C64::ZERO; n],
            random_x(n, 62),
        ];
        let refs: Vec<&[C64]> = xs.iter().map(|x| x.as_slice()).collect();
        let mut ys = vec![vec![c64(f64::NAN, 1.0); n]; 4];
        eng.apply_block(&refs, &mut ys);
        for b in [0, 2] {
            let plus_zero = |v: &C64| v.re.to_bits() == 0 && v.im.to_bits() == 0;
            assert!(ys[b].iter().all(plus_zero), "zero column {b}");
        }
        for b in [1, 3] {
            let mut alone = vec![C64::ZERO; n];
            eng.apply(&xs[b], &mut alone);
            assert_eq!(ys[b], alone, "live column {b}");
        }
    }

    #[test]
    fn repeated_apply_is_deterministic() {
        let (eng, _) = engine(32, Accuracy::low(), 3);
        let x = random_x(eng.n(), 5);
        let mut y1 = vec![C64::ZERO; eng.n()];
        let mut y2 = vec![C64::ZERO; eng.n()];
        eng.apply(&x, &mut y1);
        eng.apply(&x, &mut y2);
        assert_eq!(
            y1.iter().map(|v| v.re).sum::<f64>(),
            y2.iter().map(|v| v.re).sum::<f64>()
        );
        assert!(rel_diff(&y1, &y2) == 0.0);
    }

    #[test]
    fn symmetric_to_mlfma_accuracy() {
        // G0 is complex symmetric; the factorization preserves this to its
        // own accuracy: <y, G0 x> ~ <x, G0 y> (unconjugated).
        let (eng, _) = engine(32, Accuracy::default(), 2);
        let n = eng.n();
        let x = random_x(n, 21);
        let z = random_x(n, 22);
        let mut gx = vec![C64::ZERO; n];
        let mut gz = vec![C64::ZERO; n];
        eng.apply(&x, &mut gx);
        eng.apply(&z, &mut gz);
        let lhs: C64 = z.iter().zip(&gx).map(|(a, b)| *a * *b).sum();
        let rhs: C64 = x.iter().zip(&gz).map(|(a, b)| *a * *b).sum();
        assert!((lhs - rhs).abs() / lhs.abs() < 1e-6, "{lhs:?} vs {rhs:?}");
    }
}

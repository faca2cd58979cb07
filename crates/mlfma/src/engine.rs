//! The four-phase MLFMA matrix-vector product (paper Section III-B):
//! aggregation, translation, disaggregation, near field.
//!
//! Input and output vectors are in *tree order* (leaves in Morton order,
//! row-major within a leaf — see `ffw_geometry::QuadTree`). The product
//! computed is the full discretized Green's operator `y = G0 x`, including
//! near-field self terms, with `O(N)` work and storage.
//!
//! There is one traversal. [`MlfmaEngine::apply_block`] folds the paper's
//! illumination dimension into it: a panel of `B` right-hand sides shares
//! one pass over the far-field operators (expansion matrices, translators),
//! and every `ffw_par::Pool` chunk loop dispatches over `(cluster x column)`
//! slots, so levels with few clusters still expose `n_clusters * B` units of
//! work (the paper's Section IV-C switches such levels to sample
//! parallelism instead; see DESIGN.md §1 for why that schedule was retired).
//! [`MlfmaEngine::apply`] is the same traversal at panel width 1. Columns
//! never mix, so a column's output is bit-identical at every panel width;
//! the near field ([`crate::near`]) runs one column at a time.

use crate::near::{FORWARD_FLOPS, INVERSE_FLOPS, PAIR_FLOPS, SPECTRUM_LEN};
use crate::plan::{offset_index, MlfmaPlan};
use ffw_geometry::{morton_decode, morton_encode, LEAF_PIXELS};
use ffw_numerics::C64;
use ffw_par::Pool;
use parking_lot::Mutex;
use std::sync::Arc;

/// Panel-major scratch reused across applies: one outgoing and one incoming
/// pattern array per computed level. The pattern slot of
/// `(cluster c, column b)` at a level of width `B` lives at
/// `(c * B + b) * q .. (c * B + b + 1) * q`: all columns of one cluster are
/// adjacent, so the traversal streams each per-cluster operator once while
/// sweeping the whole panel (see DESIGN.md "Block data layout").
///
/// Buffers keep the capacity of the widest panel seen and are never
/// cleared: convergence masking narrows panels step by step and width-1
/// audits interleave with wide solves, so resizing per width would
/// reallocate and zero-fill on nearly every apply. Stale contents are
/// harmless because aggregation overwrites every outgoing slot and
/// translation every incoming slot before anything reads them
/// (`workspace_reuse_across_widths_is_bit_identical` pins that).
#[derive(Default)]
struct BlockWorkspace {
    /// outgoing[li]: radiated patterns, `n_clusters * width * q` in use.
    outgoing: Vec<Vec<C64>>,
    /// incoming[li]: translated local patterns, same layout.
    incoming: Vec<Vec<C64>>,
}

impl BlockWorkspace {
    /// Grows the buffers to hold a `width`-column panel if they do not
    /// already, and returns the in-use windows `(outgoing, incoming)`.
    fn windows(&mut self, plan: &MlfmaPlan, width: usize) -> (Vec<&mut [C64]>, Vec<&mut [C64]>) {
        fn grow<'a>(
            bufs: &'a mut Vec<Vec<C64>>,
            plan: &MlfmaPlan,
            width: usize,
        ) -> Vec<&'a mut [C64]> {
            bufs.resize(plan.levels.len(), Vec::new());
            bufs.iter_mut()
                .zip(&plan.levels)
                .map(|(buf, lp)| {
                    let len = lp.n_side * lp.n_side * width * lp.q;
                    if buf.len() < len {
                        buf.resize(len, C64::ZERO);
                    }
                    &mut buf[..len]
                })
                .collect()
        }
        (
            grow(&mut self.outgoing, plan, width),
            grow(&mut self.incoming, plan, width),
        )
    }
}

/// Per-apply work model for one MLFMA stage: flops (8 per complex
/// multiply-add) and bytes of pattern/field data moved. Computed once from
/// the plan at engine construction, charged to `ffw_obs` counters per apply.
#[derive(Clone, Copy, Default)]
struct StageCost {
    flops: u64,
    bytes: u64,
}

/// Cached observability handles + the per-apply cost model (so the hot path
/// is a handful of relaxed atomic adds, no registry lookups).
struct ObsHooks {
    applies: ffw_obs::Counter,
    block_applies: ffw_obs::Counter,
    flops: [ffw_obs::Counter; 4],
    bytes: [ffw_obs::Counter; 4],
    cost: [StageCost; 4],
    /// Bytes of *operator* data streamed by one traversal, per stage —
    /// charged once per apply whatever its width, which is where the panel
    /// path's arithmetic-intensity win shows up in the model.
    op_bytes: [u64; 4],
}

const STAGES: [&str; 4] = ["aggregate", "translate", "disaggregate", "near"];

impl ObsHooks {
    fn new(plan: &MlfmaPlan) -> Self {
        ObsHooks {
            applies: ffw_obs::counter("mlfma.applies"),
            block_applies: ffw_obs::counter("mlfma.block_applies"),
            flops: STAGES.map(|s| ffw_obs::counter(&format!("mlfma.flops.{s}"))),
            bytes: STAGES.map(|s| ffw_obs::counter(&format!("mlfma.bytes.{s}"))),
            cost: apply_cost(plan),
            op_bytes: operator_bytes(plan),
        }
    }

    /// Charges a `width`-column traversal: `mlfma.applies` advances by one
    /// *per column* (so "applies" counts matvecs at any batching), pattern
    /// flops/bytes scale with the panel width, but operator bytes are
    /// charged once — that is the fused traversal's whole point. No-op (a
    /// handful of branch-predicted loads) while the recorder is off.
    #[inline]
    fn charge_apply(&self, width: u64) {
        self.applies.add(width);
        self.block_applies.inc();
        ffw_obs::histogram("mlfma.panel_width").record(width);
        for i in 0..4 {
            self.flops[i].add(self.cost[i].flops * width);
            self.bytes[i].add(self.cost[i].bytes * width + self.op_bytes[i]);
        }
    }
}

/// Bytes of one leaf spectrum.
const SPECTRUM_BYTES: u64 = 8 * SPECTRUM_LEN as u64;

/// Builds the per-stage cost model from the plan: complex multiply-adds
/// counted as 8 flops, bytes as the pattern/field data each stage reads and
/// writes (16 bytes per `C64`). Interpolation is modeled as one MAC per
/// output sample per child — a lower bound for the band path, exact in
/// spirit for the diagonal shift/translation work that dominates.
fn apply_cost(plan: &MlfmaPlan) -> [StageCost; 4] {
    const C: u64 = 16; // bytes per C64
    let n_levels = plan.levels.len();
    let leaf = plan.leaf_plan();
    let n_leaves = (leaf.n_side * leaf.n_side) as u64;
    let q_leaf = leaf.q as u64;
    let npx = LEAF_PIXELS as u64;

    // aggregate: leaf expansions + upward interp/shift per non-leaf level
    let mut agg = StageCost {
        flops: n_leaves * q_leaf * npx * 8,
        bytes: n_leaves * (npx + q_leaf) * C,
    };
    for li in (0..n_levels.saturating_sub(1)).rev() {
        let lp = &plan.levels[li];
        let n_parents = (lp.n_side * lp.n_side) as u64;
        let q_parent = lp.q as u64;
        let q_child = plan.levels[li + 1].q as u64;
        // 4 children: interpolate child->parent sampling, then shift-MAC
        agg.flops += n_parents * 4 * (q_parent + q_parent) * 8;
        agg.bytes += n_parents * (4 * q_child + q_parent) * C;
    }

    // translate: one diagonal MAC per interaction-list entry per sample
    let mut tra = StageCost::default();
    for lp in &plan.levels {
        let q = lp.q as u64;
        let mut n_pairs = 0u64;
        for c in 0..(lp.n_side * lp.n_side) as u32 {
            let (ix, iy) = morton_decode(c);
            n_pairs += plan
                .tree
                .interaction_list(lp.level, ix as usize, iy as usize)
                .len() as u64;
        }
        tra.flops += n_pairs * q * 8;
        tra.bytes += (n_pairs * q + (lp.n_side * lp.n_side) as u64 * q) * C;
    }

    // disaggregate: mirror of the upward pass (shift + anterpolate)
    let mut dis = StageCost::default();
    for li in 0..n_levels.saturating_sub(1) {
        let lp = &plan.levels[li];
        let n_parents = (lp.n_side * lp.n_side) as u64;
        let q_parent = lp.q as u64;
        let q_child = plan.levels[li + 1].q as u64;
        dis.flops += n_parents * 4 * (q_parent + q_parent) * 8;
        dis.bytes += n_parents * (q_parent + 4 * q_child) * C;
    }

    // near: adjoint leaf expansion, then per leaf one forward and one inverse
    // 16 x 16 transform and one 256-sample diagonal product per neighbour
    let mut near = StageCost {
        flops: n_leaves * q_leaf * npx * 8,
        bytes: n_leaves * (q_leaf + npx) * C,
    };
    let leaf_side = plan.tree.clusters_per_side(plan.tree.leaf_level());
    let mut n_near = 0u64;
    for iy in 0..leaf_side {
        for ix in 0..leaf_side {
            n_near += plan.tree.near_list(ix, iy).len() as u64;
        }
    }
    near.flops += n_leaves * (FORWARD_FLOPS + INVERSE_FLOPS) + n_near * PAIR_FLOPS;
    // pixels in and spectrum out per leaf; source and kernel spectrum in per
    // neighbour (the kernel spectra are read per column, not per panel);
    // window added onto the pixels per leaf
    near.bytes += n_leaves * (npx * C + SPECTRUM_BYTES)
        + n_near * 2 * SPECTRUM_BYTES
        + n_leaves * 2 * npx * C;

    [agg, tra, dis, near]
}

/// Bytes of *operator* data (expansion matrices, interpolation weights
/// modeled as one `f64` per output sample per child, shift and translation
/// diagonals) streamed by one tree traversal.
///
/// This is the part of the cost model that does *not* scale with the panel
/// width: one `apply_block` reads each operator once for all `B` columns,
/// while `B` width-1 applies read them `B` times.
fn operator_bytes(plan: &MlfmaPlan) -> [u64; 4] {
    const C: u64 = 16; // bytes per C64
    const W: u64 = 8; // bytes per interpolation weight (f64)
    let n_levels = plan.levels.len();
    let leaf = plan.leaf_plan();
    let n_leaves = (leaf.n_side * leaf.n_side) as u64;
    let q_leaf = leaf.q as u64;
    let npx = LEAF_PIXELS as u64;

    // aggregate: leaf expansion matrix per leaf + upward interp/shift ops
    let mut agg = n_leaves * q_leaf * npx * C;
    for li in (0..n_levels.saturating_sub(1)).rev() {
        let lp = &plan.levels[li];
        let n_parents = (lp.n_side * lp.n_side) as u64;
        let q_parent = lp.q as u64;
        agg += n_parents * 4 * q_parent * (W + C);
    }

    // translate: one diagonal translator per interaction-list entry
    let mut tra = 0u64;
    for lp in &plan.levels {
        let q = lp.q as u64;
        let mut n_pairs = 0u64;
        for c in 0..(lp.n_side * lp.n_side) as u32 {
            let (ix, iy) = morton_decode(c);
            n_pairs += plan
                .tree
                .interaction_list(lp.level, ix as usize, iy as usize)
                .len() as u64;
        }
        tra += n_pairs * q * C;
    }

    // disaggregate: mirror of the upward pass (shift diag + anterp weights)
    let mut dis = 0u64;
    for li in 0..n_levels.saturating_sub(1) {
        let lp = &plan.levels[li];
        let n_parents = (lp.n_side * lp.n_side) as u64;
        let q_parent = lp.q as u64;
        dis += n_parents * 4 * q_parent * (W + C);
    }

    // near: adjoint expansion matrix per leaf (the kernel spectra are charged
    // per column in `apply_cost`)
    let near = n_leaves * q_leaf * npx * C;

    [agg, tra, dis, near]
}

/// Reusable MLFMA matvec engine.
pub struct MlfmaEngine {
    plan: Arc<MlfmaPlan>,
    pool: Arc<Pool>,
    workspace: Mutex<BlockWorkspace>,
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
            plan,
            pool,
            workspace: Mutex::new(BlockWorkspace::default()),
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
    /// *single* tree traversal: every expansion matrix, interpolator and
    /// shift/translation diagonal is loaded once and applied to all columns
    /// of the panel, and the chunk loops dispatch over `(cluster x rhs)`
    /// slots so even levels with a handful of clusters expose
    /// `n_clusters * B` units of parallelism. The leaf receive and the near
    /// field then run column by column, straight into `ys`.
    ///
    /// Columns never mix (same operations, in the same order, at every
    /// width), so each `ys[b]` is bit-identical whatever panel `xs[b]` rides
    /// in — alone included.
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
        self.obs.charge_apply(width as u64);
        let mut ws = self.workspace.lock();
        let (mut outgoing, mut incoming) = ws.windows(&self.plan, width);
        {
            let _s = ffw_obs::span("aggregate");
            self.aggregate_block(xs, &mut outgoing, width);
        }
        {
            let _s = ffw_obs::span("translate");
            self.translate_block(&outgoing, &mut incoming, width);
        }
        {
            let _s = ffw_obs::span("disaggregate");
            self.disaggregate_block(&mut incoming, width);
        }
        {
            let _s = ffw_obs::span("near");
            for (col, (x, y)) in xs.iter().zip(ys.iter_mut()).enumerate() {
                self.receive_and_near(x, &incoming, width, col, y);
            }
        }
    }

    /// Phases 5+6 for column `col` of a `width`-column panel: convert leaf
    /// local expansions back to fields (local expansion =
    /// quadrature-weighted adjoint of the multipole expansion) and add the
    /// near-field interactions. Per column the work is the same whatever the
    /// panel width — the spectra of `x`'s leaves first, then per observer
    /// leaf the local expansion and the neighbours' diagonal products in
    /// `near_list` order.
    fn receive_and_near(
        &self,
        x: &[C64],
        incoming: &[&mut [C64]],
        width: usize,
        col: usize,
        y: &mut [C64],
    ) {
        let plan = &self.plan;
        let leaf_pat = incoming.last().expect("non-empty");
        let q = plan.leaf_plan().q;
        let local = &plan.local_expansion;
        let near = &plan.near_field;
        let mut spectra = self.near_spectra.lock();
        self.pool
            .for_each_chunk_mut(&mut spectra, 8 * SPECTRUM_LEN, |start, chunk| {
                let first_leaf = start / SPECTRUM_LEN;
                for (i, spectrum) in chunk.chunks_mut(SPECTRUM_LEN).enumerate() {
                    let c = first_leaf + i;
                    near.forward(&x[c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS], spectrum);
                }
            });
        let spectra = &*spectra;
        self.pool.for_each_chunk_mut(y, LEAF_PIXELS, |start, out| {
            let c = start / LEAF_PIXELS;
            let slot = c * width + col;
            local.receive(&leaf_pat[slot * q..(slot + 1) * q], out);
            let spectrum_of = |s: usize| &spectra[s * SPECTRUM_LEN..(s + 1) * SPECTRUM_LEN];
            near.accumulate_leaf(&plan.tree, c, spectrum_of, out);
        });
    }

    /// Phase 1+2 of Fig. 4's MLFMA box: leaf multipole expansions, then
    /// upward interpolation + shift to every coarser level. One slot = one
    /// `(cluster, column)` pair, laid out panel-major so the chunk loops
    /// below get contiguous disjoint windows.
    fn aggregate_block(&self, xs: &[&[C64]], outgoing: &mut [&mut [C64]], width: usize) {
        let plan = &self.plan;
        let n_levels = plan.levels.len();
        let q_leaf = plan.leaf_plan().q;
        let expansion = &plan.expansion;
        // Leaf expansions: one leaf across all columns per panel sweep (the
        // `(c * B + b) * q` slots of a leaf are the kernel's column-blocked
        // output), 8 leaves per task.
        let leaf_len = width * q_leaf;
        self.pool
            .for_each_chunk_mut(outgoing[n_levels - 1], 8 * leaf_len, |start, chunk| {
                let first_leaf = start / leaf_len;
                let mut srcs: Vec<&[C64]> = Vec::with_capacity(width);
                for (i, out) in chunk.chunks_mut(leaf_len).enumerate() {
                    let c = first_leaf + i;
                    srcs.clear();
                    srcs.extend(
                        xs.iter()
                            .map(|x| &x[c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS]),
                    );
                    out.fill(C64::ZERO);
                    expansion.matvec_acc_panel(&srcs, out);
                }
            });
        // Upward pass over (parent x rhs) slots.
        for li in (0..n_levels - 1).rev() {
            let _lvl = ffw_obs::span(format!("L{}", plan.levels[li].level));
            let (parents, children) = {
                let (a, b) = outgoing.split_at_mut(li + 1);
                (&mut a[li], &b[0])
            };
            let lp = &plan.levels[li];
            let q_parent = lp.q;
            let q_child = plan.levels[li + 1].q;
            let interp = lp.interp.as_ref().expect("non-leaf has interp");
            self.pool
                .for_each_chunk_mut(parents, q_parent, |start, out| {
                    let slot = start / q_parent;
                    let (p, col) = (slot / width, slot % width);
                    let mut tmp = vec![C64::ZERO; q_parent];
                    for v in out.iter_mut() {
                        *v = C64::ZERO;
                    }
                    for pos in 0..4usize {
                        let c = 4 * p + pos; // Morton: children contiguous
                        let coff = (c * width + col) * q_child;
                        interp.up(&children[coff..coff + q_child], &mut tmp);
                        let shift = &lp.shift_out[pos];
                        for ((o, t), s) in out.iter_mut().zip(&tmp).zip(shift) {
                            *o = t.mul_add(*s, *o);
                        }
                    }
                });
        }
    }

    /// Phase 3: diagonal translations along every level's interaction
    /// lists, one task per `(cluster, column)` slot.
    fn translate_block(&self, outgoing: &[&mut [C64]], incoming: &mut [&mut [C64]], width: usize) {
        let plan = &self.plan;
        for (li, lp) in plan.levels.iter().enumerate() {
            let _lvl = ffw_obs::span(format!("L{}", lp.level));
            let q = lp.q;
            let src_pat = &outgoing[li];
            self.pool.for_each_chunk_mut(incoming[li], q, |start, out| {
                let slot = start / q;
                let (obs, col) = (slot / width, slot % width);
                let (ix, iy) = morton_decode(obs as u32);
                for v in out.iter_mut() {
                    *v = C64::ZERO;
                }
                for (sx, sy, off) in plan
                    .tree
                    .interaction_list(lp.level, ix as usize, iy as usize)
                {
                    let s = morton_encode(sx as u32, sy as u32) as usize;
                    let t = lp.translations[offset_index(off)]
                        .as_ref()
                        .expect("translator");
                    let soff = (s * width + col) * q;
                    let src = &src_pat[soff..soff + q];
                    for ((o, tv), sv) in out.iter_mut().zip(t.iter()).zip(src) {
                        *o = tv.mul_add(*sv, *o);
                    }
                }
            });
        }
    }

    /// Phase 4: downward pass — shift parent local expansions into children
    /// and anterpolate onto the child sampling. One slot = one
    /// `(child cluster, column)` pair.
    fn disaggregate_block(&self, incoming: &mut [&mut [C64]], width: usize) {
        let plan = &self.plan;
        let n_levels = plan.levels.len();
        for li in 0..n_levels - 1 {
            let _lvl = ffw_obs::span(format!("L{}", plan.levels[li].level));
            let (parents, children) = {
                let (a, b) = incoming.split_at_mut(li + 1);
                (&a[li], &mut b[0])
            };
            let lp = &plan.levels[li];
            let q_parent = lp.q;
            let q_child = plan.levels[li + 1].q;
            let interp = lp.interp.as_ref().expect("non-leaf");
            let anterp_scale = lp.anterp_scale;
            self.pool
                .for_each_chunk_mut(children, q_child, |start, child| {
                    let slot = start / q_child;
                    let (c, col) = (slot / width, slot % width);
                    let (p, pos) = (c / 4, c % 4);
                    let poff = (p * width + col) * q_parent;
                    let parent = &parents[poff..poff + q_parent];
                    let mut tmp = vec![C64::ZERO; q_parent];
                    let shift = &lp.shift_in[pos];
                    for ((t, g), s) in tmp.iter_mut().zip(parent).zip(shift) {
                        *t = *g * *s;
                    }
                    interp.down_add(&tmp, anterp_scale, child);
                });
        }
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
        // identical work partition-independent results (no reduction races)
        assert!(rel_diff(&outputs[1], &outputs[0]) < 1e-14);
        assert!(rel_diff(&outputs[2], &outputs[0]) < 1e-14);
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

#[cfg(test)]
mod spectral_tests {
    use super::*;
    use crate::params::Accuracy;
    use crate::plan::MlfmaPlan;
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

    /// Exact spectral resampling must be at least as accurate as the
    /// band-diagonal path, validating the paper's Table I choice.
    #[test]
    fn spectral_interpolation_matches_direct_and_beats_band() {
        let domain = Domain::new(64, 1.0);
        let x = random_x(64 * 64, 17);
        let tree = ffw_geometry::QuadTree::new(&domain);
        let pos = tree_positions(&domain, &tree);
        let kernel = ffw_greens::Kernel::new(domain.k0(), domain.equivalent_radius());
        let mut y_ref = vec![C64::ZERO; x.len()];
        DirectG0::new(kernel, &pos).apply(&x, &mut y_ref);

        let run = |acc: Accuracy| {
            let plan = Arc::new(MlfmaPlan::new(&domain, acc));
            let eng = MlfmaEngine::new(plan, Arc::new(Pool::new(1)));
            let mut y = vec![C64::ZERO; x.len()];
            eng.apply(&x, &mut y);
            rel_diff(&y, &y_ref)
        };
        let band_err = run(Accuracy::default());
        let spectral_err = run(Accuracy::default().spectral());
        assert!(
            spectral_err < 1e-5,
            "spectral path accurate: {spectral_err:e}"
        );
        assert!(
            spectral_err <= band_err * 1.2,
            "spectral must not lose to band: {spectral_err:e} vs {band_err:e}"
        );
    }
}

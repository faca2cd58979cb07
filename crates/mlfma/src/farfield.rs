//! The far-field tree traversal, written once for every engine: leaf
//! expansion and upward pass, translation, downward pass, leaf receive
//! (paper Section III-B), over one split-plane workspace.
//!
//! Each stage runs over *per-level cluster ranges*: the serial
//! [`crate::MlfmaEngine`] passes every cluster of every level, a
//! distributed rank passes the sub-trees it owns and keeps only its own
//! schedule (what is sent when) around the same four calls. A task is one
//! cluster with all the columns of the panel — 16 at the top level — so a
//! per-cluster operator is loaded once and swept over the panel.
//!
//! # Layout
//!
//! A pattern *slot* is `q` re samples followed by `q` im samples. At a level
//! of width `B` the slot of `(cluster c, column b)` lives at
//! `(c * B + b) * 2q`: all columns of one cluster are adjacent, and so are
//! the four children of one parent (Morton order). Which dimension is the
//! vector lane differs per kernel — see [`crate::kernels`] and
//! [`crate::local`] — but columns never mix, so a column's output is
//! bit-identical at every panel width, thread count and rank count.

use crate::kernels;
use crate::plan::{MlfmaPlan, SIBLING_LANES};
use ffw_geometry::LEAF_PIXELS;
use ffw_numerics::C64;
use ffw_par::Pool;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Span name of tree level `l` (a 2^15-leaf side is far beyond memory).
const LEVEL_SPANS: [&str; 16] = [
    "L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14",
    "L15",
];

thread_local! {
    /// The band kernels' sample-major sibling rows, one buffer per thread,
    /// grown to the largest child sampling seen.
    static SIBLING_ROWS: RefCell<Vec<[f64; SIBLING_LANES]>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `n` sibling rows of this thread's scratch (stale contents).
fn with_sibling_rows(n: usize, f: impl FnOnce(&mut [[f64; SIBLING_LANES]])) {
    SIBLING_ROWS.with_borrow_mut(|rows| {
        if rows.len() < n {
            rows.resize(n, [0.0; SIBLING_LANES]);
        }
        f(&mut rows[..n]);
    });
}

/// Runs `f(c, cluster)` for every cluster `c` of `range`, `grain` clusters
/// per task, `cluster` being the `cluster_len` words of `planes` that belong
/// to `c`.
fn for_each_cluster(
    pool: &Pool,
    planes: &mut [f64],
    cluster_len: usize,
    range: &Range<usize>,
    grain: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    let owned = &mut planes[range.start * cluster_len..range.end * cluster_len];
    pool.for_each_chunk_mut(owned, grain * cluster_len, |start, chunk| {
        let first = range.start + start / cluster_len;
        for (i, cluster) in chunk.chunks_exact_mut(cluster_len).enumerate() {
            f(first + i, cluster);
        }
    });
}

/// The far-field workspace of one engine and the four stages over it.
///
/// One outgoing and one incoming pattern array per computed level. Buffers
/// keep the capacity of the widest panel seen and are never cleared:
/// convergence masking narrows panels step by step and width-1 audits
/// interleave with wide solves, so resizing per width would reallocate and
/// zero-fill on nearly every apply. Stale contents are harmless because
/// aggregation overwrites every outgoing slot of its ranges and translation
/// every incoming slot before anything reads them
/// (`workspace_reuse_across_widths_is_bit_identical` pins that).
///
/// The panel need not be every column the caller holds: [`Self::begin`]
/// names the caller's columns that ride in it, so an engine that knows a
/// column's answer (`G0 0 = 0`) leaves it out of the traversal altogether.
pub struct FarField {
    plan: Arc<MlfmaPlan>,
    /// The caller's column behind each column of the panel being traversed.
    columns: Vec<usize>,
    /// outgoing[li]: radiated patterns, `n_clusters * width` slots in use.
    outgoing: Vec<Vec<f64>>,
    /// incoming[li]: translated local patterns, same layout.
    incoming: Vec<Vec<f64>>,
}

impl FarField {
    /// An empty workspace: nothing is allocated until the first panel.
    pub fn new(plan: Arc<MlfmaPlan>) -> Self {
        let empty = vec![Vec::new(); plan.levels.len()];
        FarField {
            plan,
            columns: Vec::new(),
            outgoing: empty.clone(),
            incoming: empty,
        }
    }

    /// Every cluster of every level: the ranges of an engine that owns the
    /// whole tree.
    pub fn full_ranges(plan: &MlfmaPlan) -> Vec<Range<usize>> {
        let levels = plan.levels.iter();
        levels.map(|lp| 0..lp.n_side * lp.n_side).collect()
    }

    /// Starts a panel of the caller's columns `columns` (ascending indices
    /// into the `xs` later given to [`Self::aggregate`]): grows the buffers
    /// if they do not hold a panel that wide already.
    pub fn begin(&mut self, columns: impl IntoIterator<Item = usize>) {
        self.columns.clear();
        self.columns.extend(columns);
        let width = self.columns.len();
        for bufs in [&mut self.outgoing, &mut self.incoming] {
            for (buf, lp) in bufs.iter_mut().zip(&self.plan.levels) {
                let len = lp.n_side * lp.n_side * width * 2 * lp.q;
                if buf.len() < len {
                    buf.resize(len, 0.0);
                }
            }
        }
    }

    /// The caller's column behind each panel column, in panel order.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Words of one cluster (all columns) at level index `li`.
    fn cluster_len(&self, li: usize) -> usize {
        self.columns.len() * 2 * self.plan.levels[li].q
    }

    /// Position of the slot of `(cluster c, column col)` at level index `li`.
    fn slot(&self, li: usize, c: usize, col: usize) -> Range<usize> {
        let (slot, width) = (2 * self.plan.levels[li].q, self.columns.len());
        (c * width + col) * slot..(c * width + col + 1) * slot
    }

    /// The outgoing pattern of `(cluster c, column col)` at level index `li`.
    pub fn outgoing(&self, li: usize, c: usize, col: usize) -> &[f64] {
        &self.outgoing[li][self.slot(li, c, col)]
    }

    /// Mutable [`Self::outgoing`]: where a distributed rank stores the
    /// patterns of remote clusters before translating.
    pub fn outgoing_mut(&mut self, li: usize, c: usize, col: usize) -> &mut [f64] {
        let slot = self.slot(li, c, col);
        &mut self.outgoing[li][slot]
    }

    /// Phases 1+2 of Fig. 4's MLFMA box over `ranges`: leaf multipole
    /// expansions of the panel's columns of `xs` (whose pixel 0 is tree pixel
    /// `first_pixel`), then upward interpolation + shift to every coarser
    /// level.
    pub fn aggregate(
        &mut self,
        pool: &Pool,
        ranges: &[Range<usize>],
        xs: &[&[C64]],
        first_pixel: usize,
    ) {
        let _stage = ffw_obs::span("aggregate");
        let plan = &*self.plan;
        let columns = &self.columns;
        assert!(
            columns.iter().all(|&b| b < xs.len()),
            "panel column outside the block"
        );
        let leaf_li = plan.levels.len() - 1;
        let slot = 2 * plan.leaf_plan().q;
        let leaf_len = self.cluster_len(leaf_li);
        let leaves = &mut self.outgoing[leaf_li];
        for_each_cluster(pool, leaves, leaf_len, &ranges[leaf_li], 8, |c, slots| {
            let at = c * LEAF_PIXELS - first_pixel;
            for (&b, out) in columns.iter().zip(slots.chunks_exact_mut(slot)) {
                plan.expansion.radiate(&xs[b][at..at + LEAF_PIXELS], out);
            }
        });
        for li in (0..leaf_li).rev() {
            let lp = &plan.levels[li];
            let _lvl = ffw_obs::span(LEVEL_SPANS[lp.level as usize]);
            let interp = lp.interp.as_ref().expect("non-leaf has interp");
            let (child_slot, child_len) = (2 * interp.cols(), self.cluster_len(li + 1));
            let parent_len = self.cluster_len(li);
            let (parents, children) = self.outgoing.split_at_mut(li + 1);
            let children = &children[0];
            for_each_cluster(
                pool,
                &mut parents[li],
                parent_len,
                &ranges[li],
                1,
                |p, slots| {
                    // Morton: the four children are contiguous
                    let siblings = &children[4 * p * child_len..][..4 * child_len];
                    with_sibling_rows(interp.cols() + interp.rows(), |rows| {
                        for (col, parent) in slots.chunks_exact_mut(2 * lp.q).enumerate() {
                            let kids = [0, 1, 2, 3].map(|pos| {
                                &siblings[pos * child_len + col * child_slot..][..child_slot]
                            });
                            kernels::interp_shift(interp, &lp.shift_out, kids, rows, parent);
                        }
                    });
                },
            );
        }
    }

    /// Phase 3 over `ranges`: diagonal translations along every level's
    /// interaction lists, from the outgoing patterns of the *whole* level
    /// into the incoming patterns of the observers in range.
    pub fn translate(&mut self, pool: &Pool, ranges: &[Range<usize>]) {
        let _stage = ffw_obs::span("translate");
        let plan = &*self.plan;
        for (li, lp) in plan.levels.iter().enumerate() {
            let _lvl = ffw_obs::span(LEVEL_SPANS[lp.level as usize]);
            let cluster_len = self.cluster_len(li);
            let sources = &self.outgoing[li];
            let observers = &mut self.incoming[li];
            for_each_cluster(pool, observers, cluster_len, &ranges[li], 1, |c, out| {
                kernels::translate(lp.pairs_of(c), &lp.translations, lp.q, sources, out);
            });
        }
    }

    /// Phase 4 over `ranges`: downward pass — shift parent local expansions
    /// into the children and anterpolate onto the child sampling.
    pub fn disaggregate(&mut self, pool: &Pool, ranges: &[Range<usize>]) {
        let _stage = ffw_obs::span("disaggregate");
        let plan = &*self.plan;
        for li in 0..plan.levels.len() - 1 {
            let lp = &plan.levels[li];
            let _lvl = ffw_obs::span(LEVEL_SPANS[lp.level as usize]);
            let interp = lp.interp.as_ref().expect("non-leaf has interp");
            let (child_slot, child_len) = (2 * interp.cols(), self.cluster_len(li + 1));
            let parent_len = self.cluster_len(li);
            let (parents, children) = self.incoming.split_at_mut(li + 1);
            let parents = &parents[li];
            // one task = the four children of one parent
            let siblings = &mut children[0];
            for_each_cluster(
                pool,
                siblings,
                4 * child_len,
                &ranges[li],
                1,
                |p, siblings| {
                    let slots = &parents[p * parent_len..][..parent_len];
                    with_sibling_rows(interp.cols(), |rows| {
                        for (col, parent) in slots.chunks_exact(2 * lp.q).enumerate() {
                            let mut kids = siblings.chunks_exact_mut(child_len);
                            let kids = [(); 4].map(|()| {
                                let kid = kids.next().expect("four children");
                                &mut kid[col * child_slot..][..child_slot]
                            });
                            let alpha = lp.anterp_scale;
                            kernels::shift_anterp(interp, &lp.shift_in, alpha, parent, rows, kids);
                        }
                    });
                },
            );
        }
    }

    /// Phase 5 for one leaf of one column: its local expansion back to the
    /// 64 pixel fields (`out` is overwritten).
    pub fn receive(&self, leaf: usize, col: usize, out: &mut [C64]) {
        let li = self.plan.levels.len() - 1;
        let pattern = &self.incoming[li][self.slot(li, leaf, col)];
        self.plan.local_expansion.receive(pattern, out);
    }
}

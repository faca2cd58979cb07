//! The MLFMA quad-tree cluster hierarchy over the pixel grid.
//!
//! Levels are numbered so that level `l` has `2^l x 2^l` clusters. The paper's
//! configuration (Section V-C): leaf clusters of `0.8 lambda` hold `8 x 8 = 64`
//! pixels; the highest *computed* level is level 2 (the `4 x 4 = 16` clusters
//! whose sub-trees are the unit of distributed-memory partitioning — "up to 16
//! processes" in Section IV-A). A `102.4 lambda` domain (1024^2 px) has leaf
//! level 7, i.e. the paper's "eight levels" counting 0..=7.
//!
//! Pixels are stored in *tree order*: leaves in Morton order, row-major within
//! a leaf. All solver vectors use this layout; conversion permutations to/from
//! row-major grid order are provided.

use crate::domain::Domain;
use crate::morton::{morton_decode, morton_encode};
use crate::point::{pt, Point2};

/// Pixels per leaf-cluster side (leaf = 0.8 lambda at lambda/10 pixels).
pub const LEAF_SIDE: usize = 8;
/// Pixels per leaf cluster.
pub const LEAF_PIXELS: usize = LEAF_SIDE * LEAF_SIDE;
/// The highest computed level: 4 x 4 = 16 clusters, the paper's sub-tree roots.
pub const TOP_LEVEL: u8 = 2;

/// Relative cluster offset `(dx, dy)` used to classify near-field and
/// translation operator types.
pub type Offset = (i8, i8);

/// The 9 near-field offsets (self + 8 adjacent), in row-major order.
pub const NEAR_OFFSETS: [Offset; 9] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (0, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// Quad-tree geometry for a square pixel grid.
#[derive(Clone, Debug)]
pub struct QuadTree {
    n_side_px: usize,
    leaf_level: u8,
    side: f64,
}

impl QuadTree {
    /// Builds the tree for a domain. The pixel grid side must be
    /// `LEAF_SIDE * 2^m` with `m >= TOP_LEVEL` (so at least 32 x 32 pixels).
    pub fn new(domain: &Domain) -> Self {
        let n = domain.n_side();
        assert!(
            n.is_multiple_of(LEAF_SIDE) && (n / LEAF_SIDE).is_power_of_two(),
            "grid side {n} must be LEAF_SIDE * 2^m"
        );
        let leaves_per_side = n / LEAF_SIDE;
        let leaf_level = leaves_per_side.trailing_zeros() as u8;
        assert!(
            leaf_level >= TOP_LEVEL,
            "need at least {} leaves per side (grid >= {} px), got {}",
            1 << TOP_LEVEL,
            LEAF_SIDE << TOP_LEVEL,
            leaves_per_side
        );
        QuadTree {
            n_side_px: n,
            leaf_level,
            side: domain.side(),
        }
    }

    /// Level index of the leaf clusters.
    pub fn leaf_level(&self) -> u8 {
        self.leaf_level
    }

    /// Computed levels, top (coarsest) first: `TOP_LEVEL..=leaf_level`.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = u8> {
        TOP_LEVEL..=self.leaf_level
    }

    /// Number of tree levels counted the paper's way (levels 0..=leaf).
    pub fn depth(&self) -> usize {
        self.leaf_level as usize + 1
    }

    /// Clusters per side at `level`.
    pub fn clusters_per_side(&self, level: u8) -> usize {
        1usize << level
    }

    /// Total clusters at `level`.
    pub fn n_clusters(&self, level: u8) -> usize {
        1usize << (2 * level)
    }

    /// Number of leaf clusters.
    pub fn n_leaves(&self) -> usize {
        self.n_clusters(self.leaf_level)
    }

    /// Pixels per side of the grid.
    pub fn n_side(&self) -> usize {
        self.n_side_px
    }

    /// Total number of pixels.
    pub fn n_pixels(&self) -> usize {
        self.n_side_px * self.n_side_px
    }

    /// Cluster side length at `level`.
    pub fn cluster_width(&self, level: u8) -> f64 {
        self.side / self.clusters_per_side(level) as f64
    }

    /// Center of the cluster with Morton index `m` at `level` (domain centered
    /// at the origin).
    pub fn cluster_center(&self, level: u8, m: u32) -> Point2 {
        let (ix, iy) = morton_decode(m);
        let w = self.cluster_width(level);
        let half = 0.5 * self.side;
        pt((ix as f64 + 0.5) * w - half, (iy as f64 + 0.5) * w - half)
    }

    /// Tree-order index of the pixel at grid coordinates `(px, py)`:
    /// leaves in Morton order, row-major inside each leaf.
    #[inline]
    pub fn pixel_tree_index(&self, px: usize, py: usize) -> usize {
        debug_assert!(px < self.n_side_px && py < self.n_side_px);
        let leaf = morton_encode((px / LEAF_SIDE) as u32, (py / LEAF_SIDE) as u32) as usize;
        leaf * LEAF_PIXELS + (py % LEAF_SIDE) * LEAF_SIDE + (px % LEAF_SIDE)
    }

    /// Inverse of [`Self::pixel_tree_index`].
    #[inline]
    pub fn pixel_grid_coords(&self, tree_idx: usize) -> (usize, usize) {
        let leaf = (tree_idx / LEAF_PIXELS) as u32;
        let local = tree_idx % LEAF_PIXELS;
        let (lx, ly) = morton_decode(leaf);
        (
            lx as usize * LEAF_SIDE + local % LEAF_SIDE,
            ly as usize * LEAF_SIDE + local / LEAF_SIDE,
        )
    }

    /// Physical center of the pixel with the given tree-order index.
    pub fn pixel_center_tree(&self, domain: &Domain, tree_idx: usize) -> Point2 {
        let (px, py) = self.pixel_grid_coords(tree_idx);
        domain.pixel_center(px, py)
    }

    /// Permutation `perm[grid_rm_index] = tree_index`.
    pub fn grid_to_tree_perm(&self) -> Vec<u32> {
        let n = self.n_side_px;
        let mut perm = vec![0u32; n * n];
        for py in 0..n {
            for px in 0..n {
                perm[py * n + px] = self.pixel_tree_index(px, py) as u32;
            }
        }
        perm
    }

    /// Reorders a grid row-major vector into tree order.
    pub fn to_tree_order<T: Copy + Default>(&self, grid: &[T]) -> Vec<T> {
        assert_eq!(grid.len(), self.n_pixels());
        let n = self.n_side_px;
        let mut out = vec![T::default(); grid.len()];
        for py in 0..n {
            for px in 0..n {
                out[self.pixel_tree_index(px, py)] = grid[py * n + px];
            }
        }
        out
    }

    /// Reorders a tree-order vector back to grid row-major order.
    pub fn to_grid_order<T: Copy + Default>(&self, tree: &[T]) -> Vec<T> {
        assert_eq!(tree.len(), self.n_pixels());
        let n = self.n_side_px;
        let mut out = vec![T::default(); tree.len()];
        for py in 0..n {
            for px in 0..n {
                out[py * n + px] = tree[self.pixel_tree_index(px, py)];
            }
        }
        out
    }

    /// All translation-operator offset types that can occur at any level:
    /// `max(|dx|, |dy|) in {2, 3}` — exactly the paper's 40 types (Table I).
    pub fn all_interaction_offsets() -> Vec<Offset> {
        let mut v = Vec::with_capacity(40);
        for dy in -3i8..=3 {
            for dx in -3i8..=3 {
                if dx.abs().max(dy.abs()) >= 2 {
                    v.push((dx, dy));
                }
            }
        }
        debug_assert_eq!(v.len(), 40);
        v
    }

    /// Interaction-list offsets for a cluster with coordinate parities
    /// `(px, py)` at a level *below* the top: children of the parent's
    /// neighbours that are not the cluster's own neighbours (up to 27, the
    /// paper's `6x6 - 9`).
    pub fn interaction_offsets_for_parity(px: u32, py: u32) -> Vec<Offset> {
        let ok = |p: u32, d: i8| -> bool {
            // parent displacement floor((p+d)/2) - 0 must be in [-1, 1]
            let t = p as i32 + d as i32;
            let parent = t.div_euclid(2);
            (-1..=1).contains(&parent)
        };
        let mut v = Vec::with_capacity(27);
        for dy in -3i8..=3 {
            for dx in -3i8..=3 {
                if dx.abs().max(dy.abs()) >= 2 && ok(px & 1, dx) && ok(py & 1, dy) {
                    v.push((dx, dy));
                }
            }
        }
        debug_assert_eq!(v.len(), 27);
        v
    }

    /// Iterates the far-field interaction list of cluster `(ix, iy)` at
    /// `level`: yields `(src_ix, src_iy, offset)` for each source cluster that
    /// translates *into* this cluster. At the top computed level, all
    /// non-adjacent clusters interact; below it, the parity rule applies.
    pub fn interaction_list(&self, level: u8, ix: usize, iy: usize) -> Vec<(usize, usize, Offset)> {
        let n = self.clusters_per_side(level) as i64;
        let offsets = if level == TOP_LEVEL {
            Self::all_interaction_offsets()
        } else {
            Self::interaction_offsets_for_parity(ix as u32, iy as u32)
        };
        let mut out = Vec::with_capacity(offsets.len());
        for (dx, dy) in offsets {
            let sx = ix as i64 + dx as i64;
            let sy = iy as i64 + dy as i64;
            if sx >= 0 && sx < n && sy >= 0 && sy < n {
                out.push((sx as usize, sy as usize, (dx, dy)));
            }
        }
        out
    }

    /// Near-field neighbours of leaf cluster `(ix, iy)`: the in-bounds subset
    /// of the 9 offsets in `NEAR_OFFSETS` order, as `(src_ix, src_iy, offset)`.
    pub fn near_neighbours(
        &self,
        ix: usize,
        iy: usize,
    ) -> impl Iterator<Item = (usize, usize, Offset)> {
        let n = self.clusters_per_side(self.leaf_level) as i64;
        NEAR_OFFSETS.into_iter().filter_map(move |(dx, dy)| {
            let sx = ix as i64 + dx as i64;
            let sy = iy as i64 + dy as i64;
            let inside = sx >= 0 && sx < n && sy >= 0 && sy < n;
            inside.then_some((sx as usize, sy as usize, (dx, dy)))
        })
    }

    /// [`Self::near_neighbours`], collected.
    pub fn near_list(&self, ix: usize, iy: usize) -> Vec<(usize, usize, Offset)> {
        self.near_neighbours(ix, iy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tree(n_px: usize) -> QuadTree {
        QuadTree::new(&Domain::new(n_px, 1.0))
    }

    #[test]
    fn paper_level_counts() {
        // 1024 px (102.4 lambda): leaves per side = 128 -> leaf level 7,
        // "a quad-tree structure with eight levels" (paper Section V-C).
        let t = tree(1024);
        assert_eq!(t.leaf_level(), 7);
        assert_eq!(t.depth(), 8);
        assert_eq!(t.n_clusters(TOP_LEVEL), 16); // 16 sub-trees (Section IV-A)
        assert_eq!(t.n_leaves(), 128 * 128);
        assert_eq!(t.levels().count(), 6); // computed levels 2..=7
    }

    #[test]
    fn cluster_geometry() {
        let t = tree(64); // 6.4 lambda, leaf level 3
        assert_eq!(t.leaf_level(), 3);
        assert!(
            (t.cluster_width(3) - 0.8).abs() < 1e-12,
            "0.8 lambda leaves"
        );
        // Cluster (0,0) center at top level: -D/2 + w/2 in both coords.
        let c = t.cluster_center(2, 0);
        assert!((c.x - (-3.2 + 0.8)).abs() < 1e-12);
        assert!((c.y - (-3.2 + 0.8)).abs() < 1e-12);
    }

    #[test]
    fn tree_index_roundtrip() {
        let t = tree(32);
        let mut seen = HashSet::new();
        for py in 0..32 {
            for px in 0..32 {
                let idx = t.pixel_tree_index(px, py);
                assert!(idx < t.n_pixels());
                assert!(seen.insert(idx), "bijective");
                assert_eq!(t.pixel_grid_coords(idx), (px, py));
            }
        }
    }

    #[test]
    fn tree_order_groups_leaves_contiguously() {
        let t = tree(32);
        // Pixels of leaf (0,0) occupy tree indices 0..64.
        for py in 0..LEAF_SIDE {
            for px in 0..LEAF_SIDE {
                assert!(t.pixel_tree_index(px, py) < LEAF_PIXELS);
            }
        }
        // All leaves share the same internal (row-major) pixel layout.
        let a = t.pixel_tree_index(3, 5) % LEAF_PIXELS;
        let b = t.pixel_tree_index(8 + 3, 16 + 5) % LEAF_PIXELS;
        assert_eq!(a, b);
    }

    #[test]
    fn order_conversions_invert() {
        let t = tree(32);
        let grid: Vec<u32> = (0..t.n_pixels() as u32).collect();
        let tr = t.to_tree_order(&grid);
        let back = t.to_grid_order(&tr);
        assert_eq!(grid, back);
        let perm = t.grid_to_tree_perm();
        for (g, &p) in perm.iter().enumerate() {
            assert_eq!(tr[p as usize], grid[g]);
        }
    }

    #[test]
    fn forty_offset_types_and_27_partners() {
        assert_eq!(QuadTree::all_interaction_offsets().len(), 40);
        for (px, py) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
            assert_eq!(
                QuadTree::interaction_offsets_for_parity(px, py).len(),
                27,
                "parity ({px},{py})"
            );
        }
        // The union over parities is exactly the 40 types.
        let mut union = HashSet::new();
        for (px, py) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)] {
            union.extend(QuadTree::interaction_offsets_for_parity(px, py));
        }
        assert_eq!(union.len(), 40);
    }

    /// Every cluster pair is covered exactly once: either leaf-adjacent (near
    /// field) or in the interaction list of exactly one ancestor level.
    #[test]
    fn interaction_lists_tile_all_pairs_exactly_once() {
        let t = tree(64); // leaf level 3: levels 2,3
        let leaf_n = t.clusters_per_side(t.leaf_level());
        for ay in 0..leaf_n {
            for ax in 0..leaf_n {
                for by in 0..leaf_n {
                    for bx in 0..leaf_n {
                        let adjacent = (ax as i64 - bx as i64).abs() <= 1
                            && (ay as i64 - by as i64).abs() <= 1;
                        // count coverage over levels
                        let mut covered = 0;
                        let (mut cax, mut cay, mut cbx, mut cby) = (ax, ay, bx, by);
                        for level in t.levels().rev() {
                            if t.interaction_list(level, cax, cay)
                                .iter()
                                .any(|&(sx, sy, _)| (sx, sy) == (cbx, cby))
                            {
                                covered += 1;
                            }
                            let _ = level;
                            cax /= 2;
                            cay /= 2;
                            cbx /= 2;
                            cby /= 2;
                        }
                        if adjacent {
                            assert_eq!(covered, 0, "adjacent pair must be near-field only");
                        } else {
                            assert_eq!(
                                covered, 1,
                                "pair ({ax},{ay})-({bx},{by}) covered {covered} times"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn near_list_boundary_clipping() {
        let t = tree(32);
        assert_eq!(t.near_list(0, 0).len(), 4);
        assert_eq!(t.near_list(1, 1).len(), 9);
        let n = t.clusters_per_side(t.leaf_level()) - 1;
        assert_eq!(t.near_list(n, n).len(), 4);
        assert_eq!(t.near_list(n, 1).len(), 6);
    }

    #[test]
    #[should_panic(expected = "must be LEAF_SIDE")]
    fn rejects_bad_grid() {
        tree(48);
    }
}

//! Sub-tree partitioning of the MLFMA cluster hierarchy (paper Section IV-A).
//!
//! The 16 clusters of the top computed level are the partition unit: a rank
//! owns a contiguous Morton range of them, and — because Morton order is
//! hierarchical — therefore owns the *complete sub-trees* beneath them: a
//! contiguous cluster range at every level and a contiguous pixel range.
//! Aggregation and disaggregation need no communication; only translations
//! and near-field interactions cross rank boundaries.

use ffw_geometry::{morton_decode, morton_encode};
use ffw_mlfma::MlfmaPlan;
use std::ops::Range;

/// Maximum useful sub-tree ranks: the 16 top-level clusters
/// ("partitioning beyond 16 processes would require splitting aggregation",
/// paper Section IV-A).
pub const MAX_SUBTREE_RANKS: usize = 16;

/// A rank's ownership in the sub-tree decomposition.
#[derive(Clone, Debug)]
pub struct SubtreePartition {
    /// Number of ranks sharing the tree.
    pub n_ranks: usize,
    /// This rank.
    pub rank: usize,
    /// Owned cluster range per computed level (same index order as
    /// `MlfmaPlan::levels`).
    pub cluster_ranges: Vec<Range<usize>>,
    /// Owned pixel range (tree order).
    pub pixel_range: Range<usize>,
}

impl SubtreePartition {
    /// Builds the partition for `rank` of `n_ranks`. `n_ranks` must divide 16
    /// (1, 2, 4, 8 or 16).
    pub fn new(plan: &MlfmaPlan, n_ranks: usize, rank: usize) -> Self {
        assert!(
            n_ranks >= 1 && MAX_SUBTREE_RANKS.is_multiple_of(n_ranks),
            "sub-tree ranks must divide {MAX_SUBTREE_RANKS}, got {n_ranks}"
        );
        assert!(rank < n_ranks);
        let cluster_ranges = plan
            .levels
            .iter()
            .map(|lp| {
                let n = lp.n_side * lp.n_side;
                let per = n / n_ranks;
                rank * per..(rank + 1) * per
            })
            .collect::<Vec<_>>();
        let n_px = plan.n_pixels();
        let per = n_px / n_ranks;
        SubtreePartition {
            n_ranks,
            rank,
            cluster_ranges,
            pixel_range: rank * per..(rank + 1) * per,
        }
    }

    /// Owner rank of cluster `morton` at level index `li` (levels as in the
    /// plan), for `n_ranks` ranks.
    pub fn owner_of(plan: &MlfmaPlan, n_ranks: usize, li: usize, morton: usize) -> usize {
        let lp = &plan.levels[li];
        let n = lp.n_side * lp.n_side;
        morton / (n / n_ranks)
    }

    /// Number of owned pixels.
    pub fn n_local_pixels(&self) -> usize {
        self.pixel_range.len()
    }

    /// Owned leaf-cluster range.
    pub fn leaf_range(&self) -> Range<usize> {
        self.cluster_ranges.last().expect("non-empty").clone()
    }
}

/// Communication schedule for one rank: which local clusters must be sent to
/// which peers, and which remote clusters will be received, per level; plus
/// the near-field leaf halo.
#[derive(Clone, Debug, Default)]
pub struct ExchangePlan {
    /// `send[peer][li]` = local cluster Mortons whose patterns peer needs.
    pub send: Vec<Vec<Vec<usize>>>,
    /// `recv[peer][li]` = remote cluster Mortons we will receive from peer.
    pub recv: Vec<Vec<Vec<usize>>>,
    /// `halo_send[peer]` = local leaf Mortons whose pixel blocks peer needs.
    pub halo_send: Vec<Vec<usize>>,
    /// `halo_recv[peer]` = remote leaf Mortons we need from peer.
    pub halo_recv: Vec<Vec<usize>>,
}

impl ExchangePlan {
    /// Builds the symmetric exchange schedule for `rank` of `n_ranks`.
    pub fn new(plan: &MlfmaPlan, n_ranks: usize, rank: usize) -> Self {
        let part = SubtreePartition::new(plan, n_ranks, rank);
        let n_levels = plan.levels.len();
        let mut send = vec![vec![Vec::new(); n_levels]; n_ranks];
        let mut recv = vec![vec![Vec::new(); n_levels]; n_ranks];
        for (li, lp) in plan.levels.iter().enumerate() {
            let range = &part.cluster_ranges[li];
            // For each of my clusters, walk its interaction list; remote
            // sources are received; by symmetry of the lists (offset <-> -offset)
            // the same pairs drive what I must send.
            let mut send_sets: Vec<std::collections::BTreeSet<usize>> =
                vec![Default::default(); n_ranks];
            let mut recv_sets: Vec<std::collections::BTreeSet<usize>> =
                vec![Default::default(); n_ranks];
            for c in range.clone() {
                for &(s, _translator) in lp.pairs_of(c) {
                    let s = s as usize;
                    let owner = SubtreePartition::owner_of(plan, n_ranks, li, s);
                    if owner != rank {
                        recv_sets[owner].insert(s);
                        // symmetric: they need my cluster c
                        send_sets[owner].insert(c);
                    }
                }
            }
            for peer in 0..n_ranks {
                send[peer][li] = send_sets[peer].iter().copied().collect();
                recv[peer][li] = recv_sets[peer].iter().copied().collect();
            }
        }
        // near-field leaf halo
        let leaf_li = n_levels - 1;
        let leaf_range = &part.cluster_ranges[leaf_li];
        let mut halo_send_sets: Vec<std::collections::BTreeSet<usize>> =
            vec![Default::default(); n_ranks];
        let mut halo_recv_sets: Vec<std::collections::BTreeSet<usize>> =
            vec![Default::default(); n_ranks];
        for c in leaf_range.clone() {
            let (ix, iy) = morton_decode(c as u32);
            for (sx, sy, _off) in plan.tree.near_list(ix as usize, iy as usize) {
                let s = morton_encode(sx as u32, sy as u32) as usize;
                let owner = SubtreePartition::owner_of(plan, n_ranks, leaf_li, s);
                if owner != rank {
                    halo_recv_sets[owner].insert(s);
                    halo_send_sets[owner].insert(c);
                }
            }
        }
        ExchangePlan {
            send,
            recv,
            halo_send: halo_send_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            halo_recv: halo_recv_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }

    /// Total near-field halo words sent (leaf pixel blocks).
    pub fn total_halo_words(&self) -> usize {
        self.halo_send.iter().map(|l| l.len() * 64).sum()
    }

    /// Number of peers this rank exchanges with (far-field or halo).
    pub fn n_peers(&self) -> usize {
        (0..self.send.len())
            .filter(|&p| {
                self.send[p].iter().any(|v| !v.is_empty()) || !self.halo_send[p].is_empty()
            })
            .count()
    }

    /// Total pattern entries sent (all peers, all levels), for a given plan —
    /// the communication-volume statistic used by the performance model.
    pub fn total_send_words(&self, plan: &MlfmaPlan) -> usize {
        let mut words = 0;
        for peer in &self.send {
            for (li, clusters) in peer.iter().enumerate() {
                words += clusters.len() * plan.levels[li].q;
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::Domain;
    use ffw_mlfma::Accuracy;

    fn plan() -> MlfmaPlan {
        MlfmaPlan::new(&Domain::new(64, 1.0), Accuracy::low())
    }

    #[test]
    fn partitions_tile_everything() {
        let p = plan();
        for n_ranks in [1usize, 2, 4, 8, 16] {
            let mut pixel_cover = 0;
            for r in 0..n_ranks {
                let part = SubtreePartition::new(&p, n_ranks, r);
                pixel_cover += part.n_local_pixels();
                for (li, range) in part.cluster_ranges.iter().enumerate() {
                    let n = p.levels[li].n_side.pow(2);
                    assert_eq!(range.len(), n / n_ranks);
                }
            }
            assert_eq!(pixel_cover, p.n_pixels());
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn rejects_non_divisor_ranks() {
        SubtreePartition::new(&plan(), 3, 0);
    }

    #[test]
    fn exchange_is_symmetric_across_ranks() {
        let p = plan();
        let n_ranks = 4;
        let plans: Vec<ExchangePlan> = (0..n_ranks)
            .map(|r| ExchangePlan::new(&p, n_ranks, r))
            .collect();
        for a in 0..n_ranks {
            for b in 0..n_ranks {
                if a == b {
                    continue;
                }
                for li in 0..p.levels.len() {
                    assert_eq!(
                        plans[a].send[b][li], plans[b].recv[a][li],
                        "a={a} b={b} li={li}"
                    );
                }
                assert_eq!(plans[a].halo_send[b], plans[b].halo_recv[a]);
            }
        }
    }

    #[test]
    fn single_rank_has_no_exchange() {
        let p = plan();
        let e = ExchangePlan::new(&p, 1, 0);
        assert_eq!(e.total_send_words(&p), 0);
        assert!(e.halo_send[0].is_empty());
    }

    #[test]
    fn owned_clusters_are_whole_subtrees() {
        // Children of owned clusters are owned by the same rank.
        let p = plan();
        let n_ranks = 8;
        for r in 0..n_ranks {
            let part = SubtreePartition::new(&p, n_ranks, r);
            for li in 0..p.levels.len() - 1 {
                for c in part.cluster_ranges[li].clone() {
                    for pos in 0..4 {
                        let child = 4 * c + pos;
                        assert!(
                            part.cluster_ranges[li + 1].contains(&child),
                            "rank {r}: child {child} of {c} not owned"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_ranks_more_communication() {
        let p = plan();
        let w2: usize = (0..2)
            .map(|r| ExchangePlan::new(&p, 2, r).total_send_words(&p))
            .sum();
        let w8: usize = (0..8)
            .map(|r| ExchangePlan::new(&p, 8, r).total_send_words(&p))
            .sum();
        assert!(w8 > w2, "8-way partition communicates more: {w2} vs {w8}");
    }
}

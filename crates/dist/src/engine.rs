//! Distributed-memory MLFMA: one tree partitioned over `ffw-mpi` ranks by
//! sub-trees (paper Section IV-A), with boundary-cluster pattern exchange for
//! translations, a leaf-pixel halo for the near field, buffer aggregation
//! (Section IV-B) and communication/computation overlap (Fig. 8).
//!
//! The matvec operates on *local* vector slices: rank `r` holds pixels
//! `[r N/P, (r+1) N/P)` in tree order. Aggregation and disaggregation stay
//! rank-local because owned clusters form whole sub-trees.
//!
//! The tree stages themselves are `ffw_mlfma::FarField`'s — the serial
//! engine's traversal, run over this rank's cluster ranges (one task pool of
//! one thread: ranks are the parallelism here). What this module owns is
//! the schedule around them and the wire format: a pattern travels as `q`
//! `(re, im)` pairs whatever the workspace layout.

use crate::partition::{ExchangePlan, SubtreePartition};
use crate::tag::Tag;
use ffw_geometry::{LEAF_PIXELS, NEAR_OFFSETS};
use ffw_mlfma::near::SPECTRUM_LEN;
use ffw_mlfma::{FarField, MlfmaPlan};
use ffw_mpi::{Comm, ComputeFault, FaultError, FaultEvent, Payload};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_solver::{checksum_mismatch, flip_panel_bit_detectable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Distributed MLFMA engine bound to one rank of a sub-tree communicator.
pub struct DistMlfma<'c> {
    comm: &'c Comm,
    plan: Arc<MlfmaPlan>,
    part: SubtreePartition,
    exch: ExchangePlan,
    /// Aggregate all levels into one message per peer (paper Section IV-B).
    /// When false, one message per level per peer (the ablation baseline).
    aggregate_buffers: bool,
    /// Members of this sub-tree communicator (global rank ids), index = slot.
    members: Vec<usize>,
    /// Runs the tree stages inline on this rank's thread.
    pool: Pool,
    /// Scratch reused across applies, grown on first use.
    work: Mutex<Workspace>,
    /// Opt-in ABFT compute-integrity state ([`DistMlfma::with_verify`]).
    verify: Option<DistVerify>,
}

struct Workspace {
    /// Far-field patterns, indexed by global cluster: owned clusters are
    /// aggregated here, remote ones land here off the wire.
    far: FarField,
    /// One column of leaf spectra for the near field: local leaves, then
    /// halo leaves.
    spectra: Vec<f64>,
}

/// Per-rank state of the opt-in ABFT compute-integrity mode: every panel
/// apply carries a ride-along checksum column (the elementwise sum of the
/// data columns), so `G0(sum x) = sum(G0 x)` is checked locally after the
/// apply. The checksum column partitions exactly like the data columns —
/// each rank's slice of the global checksum input is the sum of its local
/// input slices — so verification needs no extra communication.
struct DistVerify {
    /// Elementwise relative tolerance (calibrated from the MLFMA accuracy).
    rel_tol: f64,
    /// Absolute floor added to the elementwise scale.
    abs_floor: f64,
    /// 1-based count of verified panel applies on this rank.
    panel: AtomicU64,
    /// Injected fault deferred past panels whose local output is all zero
    /// (a flip there creates an undetectable — and harmless — denormal).
    deferred: Mutex<Option<ComputeFault>>,
}

fn pack(data: &[C64]) -> Vec<(f64, f64)> {
    data.iter().map(|v| (v.re, v.im)).collect()
}

fn unpack_into(src: &[(f64, f64)], dst: &mut [C64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = c64(s.0, s.1);
    }
}

/// Appends a pattern slot (`q` re samples, then `q` im samples) to a message
/// in wire order.
fn pack_pattern(slot: &[f64], wire: &mut Vec<(f64, f64)>) {
    let (re, im) = slot.split_at(slot.len() / 2);
    wire.extend(re.iter().copied().zip(im.iter().copied()));
}

/// Inverse of [`pack_pattern`].
fn unpack_pattern(wire: &[(f64, f64)], slot: &mut [f64]) {
    assert_eq!(2 * wire.len(), slot.len(), "one pattern");
    let (re, im) = slot.split_at_mut(wire.len());
    for ((s, re), im) in wire.iter().zip(re).zip(im) {
        (*re, *im) = *s;
    }
}

impl<'c> DistMlfma<'c> {
    /// Creates the engine for this rank's slot within `members` (the global
    /// rank ids of the sub-tree communicator, in slot order). For a solver
    /// that uses the whole communicator, pass `(0..comm.size()).collect()`.
    pub fn new(
        comm: &'c Comm,
        plan: Arc<MlfmaPlan>,
        members: Vec<usize>,
        aggregate_buffers: bool,
    ) -> Self {
        let slot = members
            .iter()
            .position(|&m| m == comm.rank())
            .expect("this rank must be a member");
        let n_ranks = members.len();
        let part = SubtreePartition::new(&plan, n_ranks, slot);
        let exch = ExchangePlan::new(&plan, n_ranks, slot);
        let work = Workspace {
            far: FarField::new(Arc::clone(&plan)),
            spectra: Vec::new(),
        };
        DistMlfma {
            comm,
            plan,
            part,
            exch,
            aggregate_buffers,
            members,
            pool: Pool::new(1),
            work: Mutex::new(work),
            verify: None,
        }
    }

    /// Enables ABFT compute-integrity verification of every panel apply:
    /// a checksum column (the elementwise sum of the data columns) rides
    /// along in the fused panel and the identity `G0(sum x) = sum(G0 x)` is
    /// checked elementwise on this rank's output slice after the apply.
    ///
    /// Detection is purely local; recomputation is not (the halo and
    /// far-field exchanges are consumed by the apply), so a mismatch
    /// escalates immediately as [`FaultError::ComputeCorruption`] — the
    /// fault-tolerant driver relaunches the grid from its last checkpoint.
    /// Opt-in because the extra column costs one lane of compute and
    /// bandwidth per panel.
    pub fn with_verify(mut self, rel_tol: f64, abs_floor: f64) -> Self {
        self.verify = Some(DistVerify {
            rel_tol,
            abs_floor,
            panel: AtomicU64::new(0),
            deferred: Mutex::new(None),
        });
        self
    }

    /// The communicator this engine is bound to.
    pub(crate) fn comm(&self) -> &'c Comm {
        self.comm
    }

    /// Members of the sub-tree communicator (global rank ids, slot order).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This rank's slot in the sub-tree communicator.
    pub fn slot(&self) -> usize {
        self.part.rank
    }

    /// Number of sub-tree ranks.
    pub fn n_slots(&self) -> usize {
        self.part.n_ranks
    }

    /// The partition of this rank.
    pub fn partition(&self) -> &SubtreePartition {
        &self.part
    }

    /// Local pixel count.
    pub fn n_local(&self) -> usize {
        self.part.n_local_pixels()
    }

    /// The underlying plan.
    pub fn plan(&self) -> &MlfmaPlan {
        &self.plan
    }

    /// Checked matvec of a panel of `B` right-hand sides:
    /// `ys_local[b] = (G0 xs[b])_local`. This is the engine's only
    /// traversal; a single right-hand side is a panel of width 1.
    ///
    /// Schedule (paper Fig. 8): send the near-field halo first, aggregate the
    /// local sub-trees while it is in flight, send far-field patterns, compute
    /// the near field while *they* are in flight, then receive and translate.
    ///
    /// With `aggregate_buffers` on, the halo and far-field traffic of all
    /// columns and all levels is *fused into one message per peer* — the
    /// paper's buffer aggregation (Section IV-B) extended along the
    /// illumination dimension. With it off (the ablation baseline) the same
    /// traversal posts one halo message per column and one far-field message
    /// per column, level and cluster. Per-column arithmetic never depends on
    /// the packing or the panel width, so each column's output is
    /// bit-identical either way.
    ///
    /// A dead peer or a message lost beyond the retry budget surfaces as a
    /// typed [`FaultError`], letting the rank unwind cleanly. With
    /// verification enabled ([`DistMlfma::with_verify`]) every panel, width
    /// 1 included, carries the checksum column.
    pub fn try_apply_block(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        match &self.verify {
            Some(v) => self.apply_block_verified(v, xs_local, ys_local),
            None => self.apply_block_inner(xs_local, ys_local),
        }
    }

    /// Verified panel apply: widen the panel with the checksum column, run
    /// the unverified apply, inject any scheduled compute fault into the
    /// data columns, then check the checksum identity on the local slice.
    fn apply_block_verified(
        &self,
        v: &DistVerify,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        let width = xs_local.len();
        assert_eq!(ys_local.len(), width, "block width mismatch");
        let n_local = self.n_local();
        let panel = v.panel.fetch_add(1, Ordering::SeqCst) + 1;

        // Local slice of the global checksum column: the elementwise sum of
        // this rank's input slices (summation order = column order, fixed).
        let mut x_cs = vec![C64::ZERO; n_local];
        for x in xs_local {
            for (a, b) in x_cs.iter_mut().zip(*x) {
                *a += *b;
            }
        }
        let mut xs2: Vec<&[C64]> = xs_local.to_vec();
        xs2.push(&x_cs);
        // Widen the output panel without copying the caller's columns.
        let mut ys2: Vec<Vec<C64>> = ys_local.iter_mut().map(std::mem::take).collect();
        ys2.push(vec![C64::ZERO; n_local]);
        let applied = self.apply_block_inner(&xs2, &mut ys2);
        if ffw_obs::enabled() {
            ffw_obs::counter("sdc.checksum_applies").inc();
        }
        let y_cs = ys2.pop().expect("checksum column");
        for (y, y2) in ys_local.iter_mut().zip(ys2) {
            *y = y2;
        }
        applied?;

        // Deterministic fault injection (test harness): flips land in the
        // data columns only, after the apply — modelling silent corruption
        // of this rank's local disaggregation/near-field arithmetic.
        if let Some(f) = {
            let deferred = v.deferred.lock().expect("injector mutex").take();
            deferred.or_else(|| self.comm.compute_fault())
        } {
            if !flip_panel_bit_detectable(ys_local, f.slot, f.bit) {
                *v.deferred.lock().expect("injector mutex") = Some(f);
            }
        }

        // Elementwise check of this rank's output slice.
        let expected = |i: usize| {
            ys_local.iter().fold((C64::ZERO, 0.0), |(sum, abs), y| {
                (sum + y[i], abs + (y[i].re.abs() + y[i].im.abs()))
            })
        };
        if let Some((i, d)) = checksum_mismatch(&y_cs, expected, v.rel_tol, v.abs_floor) {
            let rank = self.comm.rank();
            ffw_obs::counter("sdc.detected").inc();
            ffw_obs::counter("sdc.escalated").inc();
            ffw_obs::event(
                "sdc.detected",
                &format!(
                    "dist.apply_block: rank {rank} panel #{panel} element {i} \
                     residual {d:.3e} exceeds tol"
                ),
            );
            self.comm
                .trace_fault(FaultEvent::ComputeCorrupt { panel, attempt: 1 });
            self.comm
                .trace_fault(FaultEvent::ComputeRetriesExhausted { panel, attempts: 1 });
            return Err(FaultError::ComputeCorruption {
                rank,
                stage: "dist.apply_block".into(),
                panel,
                attempts: 1,
            });
        }
        Ok(())
    }

    fn apply_block_inner(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        let width = xs_local.len();
        assert_eq!(ys_local.len(), width, "block width mismatch");
        if width == 0 {
            return Ok(());
        }
        let n_local = self.n_local();
        for (x, y) in xs_local.iter().zip(ys_local.iter()) {
            assert_eq!(x.len(), n_local);
            assert_eq!(y.len(), n_local);
        }
        let plan = &self.plan;
        let n_levels = plan.levels.len();
        let slot = self.slot();
        let px_start = self.part.pixel_range.start;
        let ranges = &self.part.cluster_ranges;
        let mut work = self.work.lock().expect("an earlier apply panicked");
        let Workspace { far, spectra } = &mut *work;

        // Columns sharing one halo message: the whole panel when buffers are
        // aggregated, one column each in the ablation baseline.
        let halo_cols = if self.aggregate_buffers { width } else { 1 };

        // --- 1. post near-field halo sends (per message column-major: col
        // 0's leaf blocks, then col 1's, ...) ---
        for (peer_slot, leaves) in self.exch.halo_send.iter().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            for group in xs_local.chunks(halo_cols) {
                let mut buf = Vec::with_capacity(group.len() * leaves.len() * LEAF_PIXELS);
                for x_local in group {
                    for &leaf in leaves {
                        let off = leaf * LEAF_PIXELS - px_start;
                        buf.extend_from_slice(&x_local[off..off + LEAF_PIXELS]);
                    }
                }
                self.comm.send_checked(
                    self.members[peer_slot],
                    Tag::Halo as u32,
                    Payload::C64(pack(&buf)),
                )?;
            }
        }

        // --- 2. aggregation over local sub-trees (overlaps halo transit) ---
        // Every column rides, an all-zero slice included: the peers' slices
        // of that column may not be zero, and finding out would cost the
        // message the skipped traversal saves. The scan covers the local
        // leaves only, so remote and halo clusters count as live.
        far.begin(ranges, xs_local, px_start, true);
        far.aggregate(&self.pool, ranges, xs_local, px_start);

        // --- 3. post far-field pattern sends: one message per peer, or (the
        // ablation baseline) one per column, level and cluster ---
        for peer_slot in 0..self.n_slots() {
            if peer_slot == slot {
                continue;
            }
            let mut buf = Vec::new();
            for col in 0..width {
                for li in 0..n_levels {
                    for &cl in &self.exch.send[peer_slot][li] {
                        pack_pattern(far.outgoing(li, cl, col), &mut buf);
                        if !self.aggregate_buffers {
                            self.comm.send_checked(
                                self.members[peer_slot],
                                Tag::farfield_level(li),
                                Payload::C64(std::mem::take(&mut buf)),
                            )?;
                        }
                    }
                }
            }
            if !buf.is_empty() {
                self.comm.send_checked(
                    self.members[peer_slot],
                    Tag::Farfield as u32,
                    Payload::C64(buf),
                )?;
            }
        }

        // --- 4. receive the halo, then compute the near field into y,
        // column by column. x_halos[col]: that column's halo leaf blocks. ---
        let mut x_halos: Vec<Vec<(usize, Vec<C64>)>> = vec![Vec::new(); width];
        for (peer_slot, leaves) in self.exch.halo_recv.iter().enumerate() {
            if leaves.is_empty() {
                continue;
            }
            for group in x_halos.chunks_mut(halo_cols) {
                let data = self
                    .comm
                    .recv_checked(self.members[peer_slot], Tag::Halo as u32)?
                    .into_c64();
                assert_eq!(data.len(), group.len() * leaves.len() * LEAF_PIXELS);
                for (k, halo) in group.iter_mut().enumerate() {
                    let base = k * leaves.len() * LEAF_PIXELS;
                    for (i, &leaf) in leaves.iter().enumerate() {
                        let mut block = vec![C64::ZERO; LEAF_PIXELS];
                        let lo = base + i * LEAF_PIXELS;
                        unpack_into(&data[lo..lo + LEAF_PIXELS], &mut block);
                        halo.push((leaf, block));
                    }
                }
            }
        }
        for halo in &mut x_halos {
            halo.sort_by_key(|(leaf, _)| *leaf);
        }
        for ((x_local, y_local), x_halo) in xs_local.iter().zip(ys_local.iter_mut()).zip(&x_halos) {
            self.near_field(x_local, x_halo, far, spectra, y_local);
        }

        // --- 5. receive far-field patterns, in the order they were sent ---
        for peer_slot in 0..self.n_slots() {
            if peer_slot == slot {
                continue;
            }
            let expect_col: usize = (0..n_levels)
                .map(|li| self.exch.recv[peer_slot][li].len() * plan.levels[li].q)
                .sum();
            if expect_col == 0 {
                continue;
            }
            let fused = if self.aggregate_buffers {
                let data = self
                    .comm
                    .recv_checked(self.members[peer_slot], Tag::Farfield as u32)?
                    .into_c64();
                assert_eq!(data.len(), width * expect_col);
                data
            } else {
                Vec::new()
            };
            let mut cursor = 0usize;
            for col in 0..width {
                for li in 0..n_levels {
                    let q = plan.levels[li].q;
                    for &cl in &self.exch.recv[peer_slot][li] {
                        let dst = far.outgoing_mut(li, cl, col);
                        if self.aggregate_buffers {
                            unpack_pattern(&fused[cursor..cursor + q], dst);
                            cursor += q;
                        } else {
                            let data = self
                                .comm
                                .recv_checked(self.members[peer_slot], Tag::farfield_level(li))?;
                            unpack_pattern(&data.into_c64(), dst);
                        }
                    }
                }
            }
        }

        // --- 6–8. translations into local observation clusters, downward
        // pass over local sub-trees, and leaf receive (add the far field
        // into y) ---
        far.translate(&self.pool, ranges);
        far.disaggregate(&self.pool, ranges);
        let mut field = [C64::ZERO; LEAF_PIXELS];
        for (col, y_local) in ys_local.iter_mut().enumerate() {
            for (c, out) in self.part.leaf_range().zip(y_local.chunks_mut(LEAF_PIXELS)) {
                far.receive(c, col, &mut field);
                for (o, f) in out.iter_mut().zip(&field) {
                    *o += *f;
                }
            }
        }
        Ok(())
    }

    /// The near field of one column, overwriting `y_local`: spectra (into
    /// the reused `spectra`) of the live local leaves of `far`'s panel and
    /// of the halo leaves (`x_halo`, sorted by leaf), then per local observer
    /// leaf the live neighbours' diagonal products in `near_list` order —
    /// the serial engine's kernel, leaf for leaf.
    fn near_field(
        &self,
        x_local: &[C64],
        x_halo: &[(usize, Vec<C64>)],
        far: &FarField,
        spectra: &mut Vec<f64>,
        y_local: &mut [C64],
    ) {
        let plan = &self.plan;
        let near = &plan.near_field;
        let leaf_range = self.part.leaf_range();
        let n_local = leaf_range.len();
        // every spectrum read below is overwritten here first
        let in_use = (n_local + x_halo.len()) * SPECTRUM_LEN;
        if spectra.len() < in_use {
            spectra.resize(in_use, 0.0);
        }
        let spectra = &mut spectra[..in_use];
        let leaf_li = plan.levels.len() - 1;
        let live = far.live(leaf_li);
        let blocks = leaf_range.clone().zip(x_local.chunks(LEAF_PIXELS));
        let blocks = blocks.chain(x_halo.iter().map(|(leaf, block)| (*leaf, block.as_slice())));
        for ((leaf, block), spectrum) in blocks.zip(spectra.chunks_mut(SPECTRUM_LEN)) {
            if live[leaf] {
                near.forward(block, spectrum);
            }
        }
        let spectrum_of = |leaf: usize| {
            let slot = if leaf_range.contains(&leaf) {
                leaf - leaf_range.start
            } else {
                let at = x_halo.binary_search_by_key(&leaf, |(l, _)| *l);
                n_local + at.expect("halo covers all near leaves")
            };
            &spectra[slot * SPECTRUM_LEN..(slot + 1) * SPECTRUM_LEN]
        };
        for (c, out) in leaf_range.clone().zip(y_local.chunks_mut(LEAF_PIXELS)) {
            out.fill(C64::ZERO);
            let mut kept = [(0, 0); NEAR_OFFSETS.len()];
            let pairs = far.live_pairs(leaf_li, plan.near_pairs_of(c), &mut kept);
            near.accumulate(pairs, spectrum_of, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::Domain;
    use ffw_mlfma::{Accuracy, MlfmaEngine};
    use ffw_par::Pool;
    use ffw_phantom::{Phantom, SheppLogan};

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

    /// [`random_x`] on the support of the Shepp–Logan phantom the ladder
    /// synthesises from (tree order), zero elsewhere: 44% of the leaves at
    /// 64 x 64 are zero, whole rank sub-trees among them at 16 ranks.
    fn shepp_logan_x(plan: &MlfmaPlan, seed: u64) -> Vec<C64> {
        let domain = &plan.domain;
        let contrast = SheppLogan::for_domain(domain, 0.05).rasterize(domain);
        let object = ffw_phantom::object_from_contrast(domain, &plan.tree, &contrast);
        let x = random_x(plan.n_pixels(), seed).into_iter().zip(object);
        x.map(|(x, o)| if o == C64::ZERO { C64::ZERO } else { x })
            .collect()
    }

    /// Applies `xs` as one panel on `n_ranks` ranks; returns the reassembled
    /// columns and the run's message and byte totals.
    fn dist_panel(
        plan: &Arc<MlfmaPlan>,
        xs: &[Vec<C64>],
        n_ranks: usize,
        aggregate: bool,
    ) -> (Vec<Vec<C64>>, u64, u64) {
        let per = plan.n_pixels() / n_ranks;
        let (slices, handle) = ffw_mpi::run(n_ranks, |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let lo = comm.rank() * per;
            let eng = DistMlfma::new(&comm, Arc::clone(plan), members, aggregate);
            let refs: Vec<&[C64]> = xs.iter().map(|x| &x[lo..lo + per]).collect();
            let mut ys = vec![vec![C64::ZERO; per]; xs.len()];
            eng.try_apply_block(&refs, &mut ys).expect("fault-free run");
            ys
        });
        let mut cols = vec![Vec::new(); xs.len()];
        for rank_ys in slices {
            for (col, y) in cols.iter_mut().zip(rank_ys) {
                col.extend(y);
            }
        }
        let stats = handle.stats();
        (cols, stats.total_messages(), stats.total_bytes())
    }

    /// The paper's consistency check (Section V-E: serial-vs-parallel output
    /// differs by ~1e-13) holds here with no difference at all: both engines
    /// run the same traversal, so at every rank count, panel width and
    /// message packing the owned slices equal the serial columns bit for bit
    /// — with the zero leaves outside the scatterer skipped by both, the
    /// serial engine everywhere and each rank among its own leaves.
    /// The traffic is pinned too: per column `(ranks, fused messages,
    /// per-pattern messages, bytes)` as measured before the engines shared
    /// their traversal — fused messages do not grow with the width, the
    /// other two grow linearly.
    #[test]
    fn distributed_is_bit_identical_to_serial_with_pinned_traffic() {
        let domain = Domain::new(64, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let serial = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(1)));
        let n = plan.n_pixels();
        for width in [1usize, 3, 8, 9] {
            let xs: Vec<Vec<C64>> = (0..width)
                .map(|b| shepp_logan_x(&plan, 60 + b as u64))
                .collect();
            let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut want = vec![vec![C64::ZERO; n]; width];
            serial.apply_block(&refs, &mut want);
            let w = width as u64;
            for (n_ranks, fused, per_pattern, bytes) in [
                (1usize, 0u64, 0u64, 0u64),
                (2, 4, 50, 44_800),
                (4, 24, 140, 114_176),
                (16, 324, 576, 424_128),
            ] {
                for (aggregate, messages) in [(true, fused), (false, w * per_pattern)] {
                    let got = dist_panel(&plan, &xs, n_ranks, aggregate);
                    let case = format!("ranks={n_ranks} width={width} aggregate={aggregate}");
                    assert_eq!(got.0, want, "{case}");
                    assert_eq!((got.1, got.2), (messages, w * bytes), "{case}");
                }
            }
        }
    }

    /// A column rides in any panel unchanged: the distributed block path
    /// matches per-column applies bit for bit (only messages fuse).
    #[test]
    fn block_apply_is_bit_identical_per_column() {
        let domain = Domain::new(64, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let xs: Vec<Vec<C64>> = (0..3).map(|b| shepp_logan_x(&plan, 60 + b)).collect();
        let (panel, ..) = dist_panel(&plan, &xs, 4, true);
        for (b, x) in xs.iter().enumerate() {
            let (single, ..) = dist_panel(&plan, std::slice::from_ref(x), 4, true);
            assert_eq!(
                panel[b], single[0],
                "column {b} differs between fused and scalar"
            );
        }
    }
}

//! The distributed `G0` behind the solver seam: a sub-tree rank of
//! [`DistMlfma`] is a [`DistOp`], so the one BiCGStab kernel
//! (`ffw_solver::try_bicgstab_block`) and the scattering operators over it
//! run with *local* vector arithmetic on the rank's pixel slice and
//! communicator-wide inner products through [`try_allreduce_scalars`].

use crate::engine::DistMlfma;
use crate::tag::Tag;
use ffw_mpi::{Comm, FaultError};
use ffw_numerics::{c64, C64};
use ffw_solver::DistOp;

/// Sum-allreduce of complex scalars among an explicit member list (global
/// rank ids; `members[0]` acts as the root). A peer that ended early, or a
/// contribution that disagrees with its checksum lane, surfaces as a typed
/// [`FaultError`], so fault-tolerant drivers can unwind the rank cleanly and
/// relaunch.
///
/// Misuse is diagnosed rather than hung or truncated: the member list is
/// validated up front (every caller must appear in its own list, members
/// must be valid and distinct), the root asserts that every contribution is
/// as long as its own vector, and if the member lists *across* ranks
/// disagree — so some rank waits for a contribution that never comes — the
/// `ffw-mpi` deadlock watchdog reconstructs the wait-for graph and fails the
/// run with a report naming the stuck ranks.
pub fn try_allreduce_scalars(
    comm: &Comm,
    members: &[usize],
    vals: &mut [C64],
) -> Result<(), FaultError> {
    if members.len() <= 1 {
        return Ok(());
    }
    let me = comm.rank();
    assert!(
        members.contains(&me),
        "allreduce_scalars: rank {me} called with member list {members:?} that \
         does not include itself"
    );
    for (i, &m) in members.iter().enumerate() {
        assert!(
            m < comm.size(),
            "allreduce_scalars: member {m} out of range (communicator has {} ranks)",
            comm.size()
        );
        assert!(
            !members[..i].contains(&m),
            "allreduce_scalars: member {m} listed twice in {members:?}"
        );
    }
    let mut packed: Vec<(f64, f64)> = vals.iter().map(|v| (v.re, v.im)).collect();
    // Every hop carries an ABFT checksum lane (the element sum) next to the
    // data, and the root folds the contribution lanes into the lane of the
    // reduced vector, so a receiver of the DOWN broadcast re-derives the sum
    // and catches corruption inside the reduction arithmetic itself, as a
    // `ComputeCorruption` naming the rank that sent the bad sum.
    if me == members[0] {
        let mut lane = ffw_fault::abft_lane_c64(&packed);
        for &peer in &members[1..] {
            let (part, part_lane) = comm.recv_checked_laned(peer, Tag::Up as u32)?;
            let part = part.into_c64();
            // Every member's vector has the root's length, so the result the
            // root sends down has each receiver's length too.
            assert_eq!(
                part.len(),
                packed.len(),
                "allreduce_scalars: rank {peer} contributed {} elements but rank {me} \
                 holds {} — all ranks must pass equal-length buffers",
                part.len(),
                packed.len()
            );
            if let Some((lr, li)) = part_lane {
                lane.0 += lr;
                lane.1 += li;
            }
            for (p, q) in packed.iter_mut().zip(part) {
                p.0 += q.0;
                p.1 += q.1;
            }
        }
        // Deterministic fault injection (test harness): a flipped exponent
        // bit in the largest element of the sum, after its lane was folded,
        // is corruption inside the reduction arithmetic.
        if comm.reduce_fault() {
            if let Some(v) = (packed.iter_mut()).max_by(|a, b| a.0.abs().total_cmp(&b.0.abs())) {
                v.0 = f64::from_bits(v.0.to_bits() ^ (1 << 62));
            }
        }
        for &peer in &members[1..] {
            comm.send_checked_laned(
                peer,
                Tag::Down as u32,
                ffw_mpi::Payload::C64(packed.clone()),
                lane,
            )?;
        }
    } else {
        let lane = ffw_fault::abft_lane_c64(&packed);
        comm.send_checked_laned(
            members[0],
            Tag::Up as u32,
            ffw_mpi::Payload::C64(packed.clone()),
            lane,
        )?;
        let (down, _lane) = comm.recv_checked_laned(members[0], Tag::Down as u32)?;
        packed = down.into_c64();
    }
    for (v, p) in vals.iter_mut().zip(packed) {
        *v = c64(p.0, p.1);
    }
    Ok(())
}

/// A sub-tree rank of the distributed `G0`: panels of local slices in,
/// local slices out, and `reduce` sums over the sub-tree communicator — the
/// ranks holding the other pixels of the same vectors.
impl DistOp for DistMlfma<'_> {
    type Error = FaultError;
    fn n_local(&self) -> usize {
        DistMlfma::n_local(self)
    }
    fn try_apply_block_local(
        &self,
        xs_local: &[&[C64]],
        ys_local: &mut [Vec<C64>],
    ) -> Result<(), FaultError> {
        self.try_apply_block(xs_local, ys_local)
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), FaultError> {
        try_allreduce_scalars(self.comm(), self.members(), vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DistMlfma;
    use ffw_geometry::Domain;
    use ffw_mlfma::{Accuracy, MlfmaPlan};
    use ffw_numerics::vecops::{rel_diff, zdotc};
    use ffw_solver::{try_bicgstab_block, AdjointScatteringOp, ScatteringOp, Workspace};
    use std::sync::Arc;

    fn allreduce(comm: &Comm, members: &[usize], vals: &mut [C64]) {
        try_allreduce_scalars(comm, members, vals).expect("allreduce");
    }

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

    #[test]
    fn allreduce_scalars_sums_across_members() {
        let (results, _) = ffw_mpi::run(4, |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut vals = [
                c64(comm.rank() as f64, 1.0),
                c64(2.0, -(comm.rank() as f64)),
            ];
            allreduce(&comm, &members, &mut vals);
            vals
        });
        for r in results {
            assert_eq!(r[0], c64(6.0, 4.0));
            assert_eq!(r[1], c64(8.0, -6.0));
        }
    }

    #[test]
    fn allreduce_scalars_subset_only_touches_members() {
        // ranks {0, 2} reduce; ranks {1, 3} reduce; results independent
        let (results, _) = ffw_mpi::run(4, |comm| {
            let group = comm.rank() % 2;
            let members: Vec<usize> = vec![group, group + 2];
            let mut v = [c64((comm.rank() + 1) as f64, 0.0)];
            allreduce(&comm, &members, &mut v);
            v[0].re
        });
        assert_eq!(results, vec![4.0, 6.0, 4.0, 6.0]); // 1+3, 2+4
    }

    #[test]
    fn allreduce_scalars_rejects_nonmember_caller() {
        // A rank reducing over a member list it is not part of is a protocol
        // bug that previously manifested as a hang; it must now fail fast
        // with a diagnostic (the rank's own assert, propagated by ffw-mpi).
        let result = std::panic::catch_unwind(|| {
            let _ = ffw_mpi::run_with_timeout(3, std::time::Duration::from_millis(80), |comm| {
                // Ranks 0 and 1 reduce correctly; rank 2 passes a member list
                // it does not belong to.
                let members = vec![0, 1];
                let mut v = [c64(1.0, 0.0)];
                allreduce(&comm, &members, &mut v);
            });
        });
        let msg = result
            .expect_err("must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("does not include itself"), "got: {msg}");
    }

    #[test]
    fn mismatched_allreduce_lengths_fail_with_diagnostic() {
        // Rank 1 contributes a shorter buffer: the root's length check must
        // fire (and propagate out of `run`) instead of the sum being
        // silently truncated.
        let result = std::panic::catch_unwind(|| {
            let _ = ffw_mpi::run_with_timeout(2, std::time::Duration::from_millis(80), |comm| {
                let mut data = vec![c64(1.0, 0.0); 4 - comm.rank()];
                allreduce(&comm, &[0, 1], &mut data);
            });
        });
        let msg = result
            .expect_err("must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("allreduce_scalars"), "got: {msg}");
        assert!(msg.contains("equal-length"), "got: {msg}");
    }

    #[test]
    fn allreduce_equals_sequential_sum() {
        // Seeded cases: every member count 1..=7, lengths 1..=63, and both a
        // contiguous member list and a strided one (every other rank of a
        // communicator twice as large, the non-members idle).
        let mut state = 0x5EED;
        let mut next = || {
            state = ffw_fault::splitmix64(state);
            state
        };
        for case in 0..28usize {
            let n_members = 1 + case % 7;
            let stride = 1 + case / 7 % 2;
            let len = 1 + (next() % 63) as usize;
            let seed = next() % 10_000;
            let value = |r: usize, i: usize| {
                let v =
                    (seed.wrapping_mul(31).wrapping_add(r as u64 * 17 + i as u64) % 1000) as f64;
                c64(v, -v * 0.5)
            };
            let members: Vec<usize> = (0..n_members).map(|m| m * stride + stride - 1).collect();
            let (results, _) = ffw_mpi::run(n_members * stride, |comm| {
                if !members.contains(&comm.rank()) {
                    return None;
                }
                let mut data: Vec<C64> = (0..len).map(|i| value(comm.rank(), i)).collect();
                allreduce(&comm, &members, &mut data);
                Some(data)
            });
            // sequential reference
            let expect: Vec<C64> = (0..len)
                .map(|i| {
                    members
                        .iter()
                        .fold(c64(0.0, 0.0), |acc, &r| acc + value(r, i))
                })
                .collect();
            assert_eq!(results.iter().flatten().count(), n_members);
            for res in results.iter().flatten() {
                assert_eq!(
                    res, &expect,
                    "case {case}: {n_members} members, stride {stride}"
                );
            }
        }
    }

    #[test]
    fn width_one_solve_of_the_distributed_scattering_system() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 3).iter().map(|v| v.scale(5.0)).collect();
        let b = random_x(n, 5);
        let n_ranks = 4;
        let per = n / n_ranks;
        let plan2 = Arc::clone(&plan);
        let (obj_ref, b_ref) = (&object, &b);
        let (slices, _) = ffw_mpi::run(n_ranks, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let ws = Workspace::new();
            let a = ScatteringOp::new(&g0, &obj_ref[r * per..(r + 1) * per], &ws);
            let mut xs = vec![vec![C64::ZERO; per]];
            let stats = try_bicgstab_block(
                &a,
                &[&b_ref[r * per..(r + 1) * per]],
                &mut xs,
                ffw_solver::IterConfig {
                    tol: 1e-9,
                    max_iters: 500,
                },
                None,
                &ws,
            )
            .expect("solve");
            assert!(stats[0].converged, "{stats:?}");
            xs.remove(0)
        });
        let x: Vec<C64> = slices.into_iter().flatten().collect();
        // verify the residual with an independent single-rank apply
        let plan3 = Arc::clone(&plan);
        let x_ref = &x;
        let (ys, _) = ffw_mpi::run(1, move |comm| {
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan3), vec![0], true);
            let ws = Workspace::new();
            let a = ScatteringOp::new(&g0, obj_ref, &ws);
            let mut ys = vec![vec![C64::ZERO; x_ref.len()]];
            a.try_apply_block_local(&[x_ref], &mut ys).expect("apply");
            ys.remove(0)
        });
        assert!(rel_diff(&ys[0], &b) < 1e-7, "{}", rel_diff(&ys[0], &b));
    }

    /// A column of the batched distributed solver must reproduce its own
    /// width-1 solve bit-for-bit — iterates AND stats — at a width that
    /// exercises real lockstep narrowing, including a zero right-hand side
    /// column riding along.
    #[test]
    fn block_solver_bit_identical_to_scalar_per_column() {
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object: Vec<C64> = random_x(n, 21).iter().map(|v| v.scale(3.0)).collect();
        let cfg = ffw_solver::IterConfig {
            tol: 1e-8,
            max_iters: 400,
        };
        for width in [2usize, 3] {
            let bs_full: Vec<Vec<C64>> = (0..width)
                .map(|c| {
                    if width > 1 && c == 1 {
                        vec![C64::ZERO; n] // zero column must short-circuit
                    } else {
                        random_x(n, 60 + c as u64)
                    }
                })
                .collect();
            let n_ranks = 2;
            let per = n / n_ranks;
            let plan2 = Arc::clone(&plan);
            let (obj_ref, bs_ref) = (&object, &bs_full);
            let (results, _) = ffw_mpi::run(n_ranks, move |comm| {
                let members: Vec<usize> = (0..comm.size()).collect();
                let r = comm.rank();
                let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
                let ws = Workspace::new();
                let a = ScatteringOp::new(&g0, &obj_ref[r * per..(r + 1) * per], &ws);
                let b_locals: Vec<&[C64]> =
                    bs_ref.iter().map(|b| &b[r * per..(r + 1) * per]).collect();
                // batched solve
                let mut xs = vec![vec![C64::ZERO; per]; width];
                let stats = try_bicgstab_block(&a, &b_locals, &mut xs, cfg, None, &ws)
                    .expect("block solve");
                // width-1 reference, one column at a time
                for (c, b_local) in b_locals.iter().enumerate() {
                    let mut x1 = vec![vec![C64::ZERO; per]];
                    let s1 = try_bicgstab_block(&a, &[b_local], &mut x1, cfg, None, &ws)
                        .expect("width-1 solve")
                        .remove(0);
                    assert_eq!(xs[c], x1[0], "column {c} of width {width} drifted");
                    assert_eq!(
                        (stats[c].iterations, stats[c].matvecs, stats[c].converged),
                        (s1.iterations, s1.matvecs, s1.converged),
                        "column {c} stats mismatch"
                    );
                    assert_eq!(
                        stats[c].rel_residual.to_bits(),
                        s1.rel_residual.to_bits(),
                        "column {c} residual not bit-identical"
                    );
                }
                stats.iter().map(|s| s.converged).collect::<Vec<_>>()
            });
            for per_rank in results {
                assert!(per_rank.iter().all(|&ok| ok), "width {width} not converged");
            }
        }
    }

    /// A dense single-rank operator whose column 0 returns NaN on the block
    /// applies selected by `poison` (1-based call index).
    struct FlakyOp<F: Fn(usize) -> bool> {
        m: ffw_numerics::linalg::Matrix,
        calls: std::sync::atomic::AtomicUsize,
        poison: F,
    }

    impl<F: Fn(usize) -> bool> DistOp for FlakyOp<F> {
        type Error = FaultError;
        fn reduce(&self, _vals: &mut [C64]) -> Result<(), FaultError> {
            Ok(())
        }
        fn n_local(&self) -> usize {
            self.m.rows()
        }
        fn try_apply_block_local(
            &self,
            xs: &[&[C64]],
            ys: &mut [Vec<C64>],
        ) -> Result<(), FaultError> {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1;
            for (x, y) in xs.iter().zip(ys.iter_mut()) {
                self.m.matvec(x, y);
            }
            if (self.poison)(call) {
                ys[0].iter_mut().for_each(|v| *v = c64(f64::NAN, f64::NAN));
            }
            Ok(())
        }
    }

    fn flaky<F: Fn(usize) -> bool>(n: usize, poison: F) -> FlakyOp<F> {
        let noise = random_x(n * n, 7);
        let m = ffw_numerics::linalg::Matrix::from_fn(n, n, |r, c| {
            noise[r * n + c] + if r == c { c64(6.0, 0.0) } else { C64::ZERO }
        });
        FlakyOp {
            m,
            calls: std::sync::atomic::AtomicUsize::new(0),
            poison,
        }
    }

    /// The breakdown contract of the kernel on a fallible operator: a column
    /// that goes non-finite is rolled back to its last finite iterate and
    /// retried once as a width-1 panel (siblings untouched); if the retry
    /// breaks down too the solve surfaces `KrylovBreakdown` naming one
    /// restart. (`ffw-solver` runs the same scenario on an in-process
    /// operator.)
    #[test]
    fn broken_column_retries_once_then_surfaces_breakdown() {
        let n = 24;
        let cfg = ffw_solver::IterConfig {
            tol: 1e-10,
            max_iters: 100,
        };
        let bs = [random_x(n, 31), random_x(n, 33)];
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let solve = |op: &dyn DistOp<Error = FaultError>| {
            let mut xs = vec![vec![C64::ZERO; n]; 2];
            let out = try_bicgstab_block(op, &b_refs, &mut xs, cfg, None, &Workspace::new());
            (out, xs)
        };
        let (clean, x_clean) = solve(&flaky(n, |_| false));
        // block apply 4 is the `A p` of the panel's second iteration
        let (transient, x_transient) = solve(&flaky(n, |call| call == 4));
        let (persistent, _) = solve(&flaky(n, |call| call >= 4));
        let clean = clean.expect("clean solve");
        let transient = transient.expect("one retry recovers a transient breakdown");
        assert!(clean.iter().chain(&transient).all(|s| s.converged));
        assert!(
            clean[0].iterations > 2,
            "the poisoned apply must be reached"
        );
        assert_eq!(transient[1], clean[1], "sibling column stats untouched");
        assert_eq!(
            x_transient[1], x_clean[1],
            "sibling column iterate untouched"
        );
        assert!(
            rel_diff(&x_transient[0], &x_clean[0]) < 1e-8,
            "same solution"
        );
        match persistent {
            Err(FaultError::KrylovBreakdown { detail, .. }) => {
                assert!(detail.contains("1 restart(s) attempted)"), "{detail}")
            }
            other => panic!("expected KrylovBreakdown, got {other:?}"),
        }
    }

    #[test]
    fn adjoint_op_consistent_with_forward() {
        // <A x, y> == <x, A^H y> on distributed slices (2 ranks)
        let domain = Domain::new(32, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
        let n = plan.n_pixels();
        let object = random_x(n, 9);
        let x = random_x(n, 11);
        let y = random_x(n, 13);
        let per = n / 2;
        let plan2 = Arc::clone(&plan);
        let (o_ref, x_ref, y_ref) = (&object, &x, &y);
        let (dots, _) = ffw_mpi::run(2, move |comm| {
            let members: Vec<usize> = vec![0, 1];
            let r = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members.clone(), true);
            let ol = &o_ref[r * per..(r + 1) * per];
            let ws = Workspace::new();
            let a = ScatteringOp::new(&g0, ol, &ws);
            let ah = AdjointScatteringOp::new(&g0, ol, &ws);
            let mut ax = vec![vec![C64::ZERO; per]];
            a.try_apply_block_local(&[&x_ref[r * per..(r + 1) * per]], &mut ax)
                .expect("forward apply");
            let mut ahy = vec![vec![C64::ZERO; per]];
            ah.try_apply_block_local(&[&y_ref[r * per..(r + 1) * per]], &mut ahy)
                .expect("adjoint apply");
            let mut d = [
                zdotc(&ax[0], &y_ref[r * per..(r + 1) * per]),
                zdotc(&x_ref[r * per..(r + 1) * per], &ahy[0]),
            ];
            allreduce(&comm, &members, &mut d);
            d
        });
        let (lhs, rhs) = (dots[0][0], dots[0][1]);
        // The adjoint reuses G0^T = G0, which the MLFMA *approximation*
        // satisfies only to its own accuracy (~1e-3 at Accuracy::low); the
        // identity must hold at that level, not machine precision.
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs:?} vs {rhs:?}"
        );
    }
}

//! Leaf-block Jacobi preconditioner for the forward-scattering system —
//! implements the paper's Section VIII future-work item (preconditioning to
//! tame resonance/near-resonance regimes).
//!
//! The system is `A = I - G0 diag(O)`. Its block diagonal by MLFMA leaf is
//! `B_c = I - N_self diag(O_c)`, where `N_self` is the shared 64 x 64
//! self-interaction matrix (the strongest couplings in the whole operator).
//! Each block is LU-factorized once per object update; application is an
//! independent 64 x 64 solve per leaf — embarrassingly parallel and `O(N)`.

use ffw_geometry::LEAF_PIXELS;
use ffw_mlfma::MlfmaPlan;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::lu::LuFactors;
use ffw_numerics::C64;
use ffw_solver::Precond;

/// Block-Jacobi preconditioner over MLFMA leaf clusters.
pub struct LeafBlockJacobi {
    blocks: Vec<Option<LuFactors>>,
}

impl LeafBlockJacobi {
    /// Builds the preconditioner for the current object (tree order) — or
    /// for a rank's slice of it: leaf blocks are rank-local, so any whole
    /// number of leaves works. Singular blocks (possible only at exact
    /// resonances) fall back to identity.
    pub fn new(plan: &MlfmaPlan, object: &[C64]) -> Self {
        Self::build(plan, object, false)
    }

    /// Builds the preconditioner for the *adjoint* system
    /// `A^H = I - diag(conj O) N_self^H` (blockwise).
    pub fn new_adjoint(plan: &MlfmaPlan, object: &[C64]) -> Self {
        Self::build(plan, object, true)
    }

    fn build(plan: &MlfmaPlan, object: &[C64], adjoint: bool) -> Self {
        assert!(
            object.len().is_multiple_of(LEAF_PIXELS) && object.len() <= plan.n_pixels(),
            "the object slice must be a whole number of leaves"
        );
        let n_self = plan.near_field.dense_block((0, 0));
        let n_leaves = object.len() / LEAF_PIXELS;
        let blocks = (0..n_leaves)
            .map(|c| {
                let o = &object[c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS];
                if o.iter().all(|v| v.abs() == 0.0) {
                    // empty leaf: block is the identity, skip the LU
                    return None;
                }
                let b = Matrix::from_fn(LEAF_PIXELS, LEAF_PIXELS, |r, cc| {
                    let v = if adjoint {
                        // (I - N diag(O))^H = I - diag(conj O) N^H
                        -(o[r].conj() * n_self.at(cc, r).conj())
                    } else {
                        -(n_self.at(r, cc) * o[cc])
                    };
                    if r == cc {
                        v + C64::ONE
                    } else {
                        v
                    }
                });
                LuFactors::new(&b).ok()
            })
            .collect();
        LeafBlockJacobi { blocks }
    }

    /// Number of factorized (non-identity) blocks.
    pub fn active_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

impl Precond for LeafBlockJacobi {
    fn apply(&self, r: &[C64], z: &mut [C64]) {
        assert_eq!(r.len(), self.blocks.len() * LEAF_PIXELS);
        assert_eq!(z.len(), r.len());
        for (c, block) in self.blocks.iter().enumerate() {
            let range = c * LEAF_PIXELS..(c + 1) * LEAF_PIXELS;
            match block {
                Some(lu) => {
                    let mut local = r[range.clone()].to_vec();
                    lu.solve_in_place(&mut local);
                    z[range].copy_from_slice(&local);
                }
                None => z[range.clone()].copy_from_slice(&r[range]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::{Domain, QuadTree};
    use ffw_greens::{assemble_g0, tree_positions, Kernel};
    use ffw_mlfma::Accuracy;
    use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
    use ffw_solver::{
        bicgstab, bicgstab_block_with, IterConfig, ScatteringOp, SolveStats, Workspace,
    };

    fn solve_preconditioned(
        a: &ScatteringOp<Matrix>,
        m: &LeafBlockJacobi,
        b: &[C64],
        cfg: IterConfig,
    ) -> (Vec<C64>, SolveStats) {
        let mut xs = vec![vec![C64::ZERO; b.len()]];
        let ws = Workspace::new();
        let stats = bicgstab_block_with(a, &[b], &mut xs, cfg, None, Some(m), &ws).remove(0);
        (xs.remove(0), stats)
    }

    fn scene(contrast: f64) -> (MlfmaPlan, Vec<C64>, Matrix) {
        let domain = Domain::new(32, 1.0);
        let tree = QuadTree::new(&domain);
        let plan = MlfmaPlan::new(&domain, Accuracy::low());
        let cyl = Cylinder {
            center: ffw_geometry::Point2::ZERO,
            radius: 1.2,
            contrast,
        };
        let object = object_from_contrast(&domain, &tree, &cyl.rasterize(&domain));
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let pos = tree_positions(&domain, &tree);
        let g0 = assemble_g0(&kernel, &pos);
        (plan, object, g0)
    }

    #[test]
    fn preconditioned_solution_matches_plain() {
        let (plan, object, g0) = scene(0.3);
        let n = object.len();
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &object, &ws);
        let b: Vec<C64> = (0..n).map(|i| C64::cis(0.1 * i as f64)).collect();
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 2000,
        };
        let mut x_plain = vec![C64::ZERO; n];
        let plain = bicgstab(&a, &b, &mut x_plain, cfg);
        let m = LeafBlockJacobi::new(&plan, &object);
        let (x_pre, pre) = solve_preconditioned(&a, &m, &b, cfg);
        assert!(plain.converged && pre.converged);
        assert!(
            ffw_numerics::vecops::rel_diff(&x_pre, &x_plain) < 1e-6,
            "same solution"
        );
    }

    #[test]
    fn preconditioner_reduces_iterations_at_high_contrast() {
        let (plan, object, g0) = scene(0.8);
        let n = object.len();
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &object, &ws);
        let b: Vec<C64> = (0..n).map(|i| C64::cis(0.37 * i as f64)).collect();
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 4000,
        };
        let mut x1 = vec![C64::ZERO; n];
        let plain = bicgstab(&a, &b, &mut x1, cfg);
        let m = LeafBlockJacobi::new(&plan, &object);
        let (_, pre) = solve_preconditioned(&a, &m, &b, cfg);
        assert!(pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "block-Jacobi helps at high contrast: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn empty_leaves_skip_factorization() {
        let (plan, object, _) = scene(0.3);
        let m = LeafBlockJacobi::new(&plan, &object);
        // the 1.2-lambda cylinder does not touch every 0.8-lambda leaf
        assert!(m.active_blocks() > 0);
        assert!(m.active_blocks() < plan.tree.n_leaves());
        // identity on an empty-object vector region
        let zero_obj = vec![C64::ZERO; object.len()];
        let ident = LeafBlockJacobi::new(&plan, &zero_obj);
        assert_eq!(ident.active_blocks(), 0);
        let r: Vec<C64> = (0..object.len()).map(|i| C64::cis(i as f64)).collect();
        let mut z = vec![C64::ZERO; r.len()];
        ident.apply(&r, &mut z);
        assert!(ffw_numerics::vecops::rel_diff(&z, &r) == 0.0);
    }
}

//! The linear single-scattering (Born approximation) inversion baseline —
//! the "conventional diffraction tomography" comparator of the paper's
//! Figs. 1 and 2.
//!
//! Under the Born approximation the total field inside the object is replaced
//! by the incident field, making the data *linear* in the object:
//! `phi_sca_t ~ GR diag(phi_inc_t) O`. Stacking transmitters gives an
//! `(R T) x N` linear least-squares problem, solved here by CGNR with early
//! termination as the only regularization (mirroring the DBIM setting).

use crate::problem::ImagingSetup;
use ffw_numerics::linalg::{rows_adjoint_panel, rows_panel};
use ffw_numerics::C64;
use ffw_solver::{cgnr, FnOp, IterConfig, SolveStats};
use std::ops::Range;

/// Configuration for the Born inversion.
#[derive(Clone, Copy, Debug)]
pub struct BornConfig {
    /// CGNR settings; iterations act as the regularizer.
    pub solver: IterConfig,
}

impl Default for BornConfig {
    fn default() -> Self {
        BornConfig {
            solver: IterConfig {
                tol: 1e-6,
                max_iters: 60,
            },
        }
    }
}

/// Result of the linear inversion.
#[derive(Clone, Debug)]
pub struct BornResult {
    /// Reconstructed object (tree order, includes the k0^2 factor).
    pub object: Vec<C64>,
    /// CGNR statistics.
    pub stats: SolveStats,
}

/// Runs the Born (single-scattering) reconstruction.
pub fn born_inversion(setup: &ImagingSetup, measured: &[Vec<C64>], cfg: &BornConfig) -> BornResult {
    let n = setup.n_pixels();
    assert_eq!(measured.len(), setup.n_tx());
    let m = setup.n_tx() * setup.n_rx();
    let b_op = FnOp::new(m, n, |o: &[C64], out: &mut [C64]| born_apply(setup, o, out));
    let bh_op = FnOp::new(n, m, |b: &[C64], out: &mut [C64]| {
        born_adjoint(setup, b, out)
    });
    let stacked: Vec<C64> = measured.iter().flat_map(|v| v.iter().copied()).collect();
    let mut object = vec![C64::ZERO; n];
    let stats = cgnr(&b_op, &bh_op, &stacked, &mut object, cfg.solver);
    BornResult { object, stats }
}

/// The stacked forward map `B O = [GR (phi_inc_t . O)]_t`, all
/// transmitters in one panel.
fn born_apply(setup: &ImagingSetup, o: &[C64], out: &mut [C64]) {
    let source = |t: usize, px: Range<usize>, w: &mut [C64]| {
        let inc = &setup.incident(t)[px.clone()];
        for ((wi, p), oi) in w.iter_mut().zip(inc).zip(&o[px]) {
            *wi = *p * *oi;
        }
    };
    rows_panel(&setup.gr_rows(0..o.len()), setup.n_tx(), source, out);
}

/// Its adjoint `B^H b = sum_t conj(phi_inc_t) . (GR^H b_t)`, accumulated in
/// ascending `t` at every pixel.
fn born_adjoint(setup: &ImagingSetup, b: &[C64], out: &mut [C64]) {
    let bs: Vec<&[C64]> = b.chunks(setup.n_rx()).collect();
    out.fill(C64::ZERO);
    let n = out.len();
    rows_adjoint_panel(&setup.gr_rows(0..n), n, &bs, |t, px, y| {
        let inc = &setup.incident(t)[px.clone()];
        for ((o, p), yi) in out[px].iter_mut().zip(inc).zip(y) {
            *o += p.conj() * *yi;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::vecops::zdotc;

    #[test]
    fn born_operator_adjoint_consistency() {
        // <B x, y> == <x, B^H y> exercised through a tiny real setup.
        let domain = ffw_geometry::Domain::new(32, 1.0);
        let r = 2.0 * domain.side();
        let setup = ImagingSetup::new(
            domain,
            ffw_geometry::TransducerArray::ring(3, r),
            ffw_geometry::TransducerArray::ring(5, r),
        );
        let n = setup.n_pixels();
        let m = setup.n_tx() * setup.n_rx();
        let x: Vec<C64> = (0..n).map(|i| C64::cis(0.13 * i as f64)).collect();
        let y: Vec<C64> = (0..m).map(|i| C64::cis(0.7 * i as f64 + 1.0)).collect();

        let mut bx = vec![C64::ZERO; m];
        born_apply(&setup, &x, &mut bx);
        let mut bhy = vec![C64::ZERO; n];
        born_adjoint(&setup, &y, &mut bhy);
        let lhs = zdotc(&bx, &y);
        let rhs = zdotc(&x, &bhy);
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs(), "{lhs:?} vs {rhs:?}");
    }
}

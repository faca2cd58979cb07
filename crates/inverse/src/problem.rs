//! The imaging problem setup: domain, transducers, incident fields and the
//! receiver Green's operator (paper Fig. 3).
//!
//! `GR` is applied only through the panel kernels of `ffw-numerics`
//! ([`rows_panel`], [`ffw_numerics::linalg::rows_adjoint_panel`]) on its
//! rows ([`ImagingSetup::gr_rows`]): every product through it takes a whole
//! panel of transmitters in one pass over the rows.

use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_greens::{incident_field, tree_positions, Kernel};
use ffw_numerics::linalg::{rows_panel, Matrix};
use ffw_numerics::C64;
use ffw_solver::BlockLinOp;
use std::ops::Range;

/// Geometry + precomputed measurement operators for one imaging experiment.
///
/// The receiver operator `GR` (`R x N`) is precomputed densely — it is tiny
/// compared to `G0` (`R << N`) and is applied once per panel of
/// transmitters per forward solution. Incident fields `phi_inc_t` are
/// precomputed per transmitter.
pub struct ImagingSetup {
    /// The imaging domain.
    pub domain: Domain,
    /// The cluster tree defining the solver's pixel ordering.
    pub tree: QuadTree,
    /// Green's-function constants.
    pub kernel: Kernel,
    /// Transmitters (`T` illuminations).
    pub transmitters: TransducerArray,
    /// Receivers (`R` measurement points).
    pub receivers: TransducerArray,
    positions: Vec<Point2>,
    gr: Matrix,
    phi_inc: Vec<Vec<C64>>,
}

impl ImagingSetup {
    /// Builds the setup; transducers must lie outside the imaging domain.
    pub fn new(domain: Domain, transmitters: TransducerArray, receivers: TransducerArray) -> Self {
        let tree = QuadTree::new(&domain);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let bound = domain.bounding_radius();
        assert!(
            transmitters.min_radius() > bound && receivers.min_radius() > bound,
            "transducers must surround the imaging domain"
        );
        let positions = tree_positions(&domain, &tree);
        let gr_span = ffw_obs::span("setup.gr");
        let gr = ffw_greens::assemble_gr(&kernel, &receivers, &positions);
        drop(gr_span);
        let _incident_span = ffw_obs::span("setup.incident");
        let phi_inc = (0..transmitters.len())
            .map(|t| incident_field(&kernel, &transmitters, t, &positions))
            .collect();
        ImagingSetup {
            domain,
            tree,
            kernel,
            transmitters,
            receivers,
            positions,
            gr,
            phi_inc,
        }
    }

    /// Number of unknown pixels.
    pub fn n_pixels(&self) -> usize {
        self.positions.len()
    }

    /// Number of transmitters `T`.
    pub fn n_tx(&self) -> usize {
        self.transmitters.len()
    }

    /// Number of receivers `R`.
    pub fn n_rx(&self) -> usize {
        self.receivers.len()
    }

    /// Pixel positions in tree order.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Incident field of transmitter `t` on the pixels (tree order).
    pub fn incident(&self, t: usize) -> &[C64] {
        &self.phi_inc[t]
    }

    /// Relative residual norm of a measurement-space residual set:
    /// `sqrt(sum_t ||r_t||^2 / sum_t ||m_t||^2)` — the paper's reported
    /// "relative residual norm (of the right-hand side)".
    pub fn relative_residual(residuals: &[Vec<C64>], measured: &[Vec<C64>]) -> f64 {
        let num: f64 = residuals
            .iter()
            .map(|r| r.iter().map(|v| v.norm_sqr()).sum::<f64>())
            .sum();
        let den: f64 = measured
            .iter()
            .map(|m| m.iter().map(|v| v.norm_sqr()).sum::<f64>())
            .sum();
        (num / den).sqrt()
    }
}

/// Synthesizes measured data `phi_mea_t` for all transmitters by solving the
/// forward problem on a known object (the inverse crime is avoided in the
/// experiments by using a different accuracy/discretization for synthesis
/// where noted). Returns per-transmitter receiver samples.
pub fn synthesize_measurements<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    object: &[C64],
    forward: ffw_solver::IterConfig,
) -> Vec<Vec<C64>> {
    let n = setup.n_pixels();
    let n_tx = setup.n_tx();
    let batch = n_tx.clamp(1, 8);
    let ws = ffw_solver::Workspace::new();
    let engine = ffw_solver::BicgstabBackend::new(g0, object, None, &ws);
    let gr = setup.gr_rows(0..n);
    let n_rx = setup.n_rx();
    let mut out = Vec::with_capacity(n_tx);
    for t0 in (0..n_tx).step_by(batch) {
        let t1 = (t0 + batch).min(n_tx);
        let incs: Vec<&[C64]> = (t0..t1).map(|t| setup.incident(t)).collect();
        // cold starts: each column solved from zero, as the scalar loop did
        let mut phis = ws.lease_zeroed(n, t1 - t0);
        let stats = engine
            .solve_block(&incs, &mut phis, forward)
            .expect("synthesis forward solve broke down");
        for (k, t) in (t0..t1).enumerate() {
            assert!(
                stats[k].converged,
                "synthesis forward solve failed for tx {t}: {:?}",
                stats[k]
            );
        }
        // phi_sca_t = GR (O . phi_t)
        let source = |k: usize, px: Range<usize>, w: &mut [C64]| {
            for ((wi, o), p) in w.iter_mut().zip(&object[px.clone()]).zip(&phis[k][px]) {
                *wi = *o * *p;
            }
        };
        let mut rx = vec![C64::ZERO; (t1 - t0) * n_rx];
        rows_panel(&gr, t1 - t0, source, &mut rx);
        out.extend(rx.chunks(n_rx).map(|r| r.to_vec()));
    }
    out
}

/// Adds complex Gaussian noise at the given SNR (dB), deterministically.
pub fn add_noise(data: &mut [Vec<C64>], snr_db: f64, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let power: f64 = data
        .iter()
        .flat_map(|v| v.iter())
        .map(|v| v.norm_sqr())
        .sum::<f64>()
        / data.iter().map(|v| v.len()).sum::<usize>() as f64;
    let sigma = (power * 10f64.powf(-snr_db / 10.0) / 2.0).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    for v in data.iter_mut().flat_map(|v| v.iter_mut()) {
        // Box-Muller
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen();
        let mag = (-2.0 * u1.ln()).sqrt();
        v.re += sigma * mag * (std::f64::consts::TAU * u2).cos();
        v.im += sigma * mag * (std::f64::consts::TAU * u2).sin();
    }
}

impl ImagingSetup {
    /// The rows of `GR[:, cols]`, one per receiver: the column-sliced
    /// receiver operator used by the sub-tree-distributed solver (each rank
    /// contributes its pixel range; the group reduces the partial receiver
    /// vectors).
    pub fn gr_rows(&self, cols: Range<usize>) -> Vec<&[C64]> {
        (0..self.n_rx())
            .map(|rx| &self.gr.row(rx)[cols.clone()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_greens::assemble_g0;
    use ffw_numerics::linalg::rows_adjoint_panel;

    fn tiny_setup() -> ImagingSetup {
        let domain = Domain::new(32, 1.0);
        let r = 2.0 * domain.side();
        ImagingSetup::new(
            domain,
            TransducerArray::ring(4, r),
            TransducerArray::ring(8, r),
        )
    }

    #[test]
    fn shapes() {
        let s = tiny_setup();
        assert_eq!(s.n_pixels(), 1024);
        assert_eq!(s.n_tx(), 4);
        assert_eq!(s.n_rx(), 8);
        assert_eq!(s.incident(0).len(), 1024);
    }

    #[test]
    #[should_panic(expected = "surround")]
    fn rejects_transducers_inside_domain() {
        let domain = Domain::new(32, 1.0);
        let r = 0.2 * domain.side();
        ImagingSetup::new(
            domain,
            TransducerArray::ring(4, r),
            TransducerArray::ring(4, r),
        );
    }

    #[test]
    fn gr_adjoint_identity() {
        let s = tiny_setup();
        let n = s.n_pixels();
        let w: Vec<C64> = (0..n).map(|i| C64::cis(0.3 * i as f64)).collect();
        let b: Vec<C64> = (0..s.n_rx())
            .map(|i| C64::cis(1.1 * i as f64 + 0.2))
            .collect();
        let gr = s.gr_rows(0..n);
        let mut grw = vec![C64::ZERO; s.n_rx()];
        let source = |_: usize, px: Range<usize>, src: &mut [C64]| src.copy_from_slice(&w[px]);
        rows_panel(&gr, 1, source, &mut grw);
        let mut ghb = vec![C64::ZERO; n];
        rows_adjoint_panel(&gr, n, &[&b], |_, range, s| ghb[range].copy_from_slice(s));
        let lhs = ffw_numerics::vecops::zdotc(&grw, &b);
        let rhs = ffw_numerics::vecops::zdotc(&w, &ghb);
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs());
    }

    #[test]
    fn zero_object_scatters_nothing() {
        let s = tiny_setup();
        let g0 = assemble_g0(&s.kernel, s.positions());
        let object = vec![C64::ZERO; s.n_pixels()];
        let data = synthesize_measurements(&s, &g0, &object, Default::default());
        for rx in data {
            assert!(rx.iter().all(|v| v.abs() < 1e-14));
        }
    }

    #[test]
    fn relative_residual_metric() {
        let m = vec![
            vec![ffw_numerics::c64(3.0, 0.0)],
            vec![ffw_numerics::c64(4.0, 0.0)],
        ];
        let r = vec![
            vec![ffw_numerics::c64(0.3, 0.0)],
            vec![ffw_numerics::c64(0.4, 0.0)],
        ];
        assert!((ImagingSetup::relative_residual(&r, &m) - 0.1).abs() < 1e-14);
    }

    #[test]
    fn noise_changes_data_at_expected_level() {
        let mut data = vec![vec![ffw_numerics::c64(1.0, 0.0); 100]; 4];
        let clean = data.clone();
        add_noise(&mut data, 20.0, 99);
        let num: f64 = data
            .iter()
            .zip(&clean)
            .flat_map(|(a, b)| a.iter().zip(b.iter()))
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum();
        let den: f64 = clean.iter().flatten().map(|v| v.norm_sqr()).sum();
        let snr = -10.0 * (num / den).log10();
        assert!((snr - 20.0).abs() < 1.5, "snr = {snr}");
    }
}

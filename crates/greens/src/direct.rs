//! Dense / on-the-fly reference implementations of the Green's operators.
//!
//! These are the `O(N^2)` baselines the paper compares MLFMA against
//! (Section V-B: "at most 1e-5 error, relative to naive direct O(N^2)
//! multiplication") and the oracles for our accuracy tests.

use crate::kernel::{Kernel, QUARTER_I};
use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_numerics::bessel::hankel1_0_into;
use ffw_numerics::linalg::Matrix;
use ffw_numerics::{dispatch, C64};

/// Pixel center positions in tree order.
pub fn tree_positions(domain: &Domain, tree: &QuadTree) -> Vec<Point2> {
    (0..tree.n_pixels())
        .map(|i| tree.pixel_center_tree(domain, i))
        .collect()
}

/// On-the-fly `y = G0 x` in `O(N^2)` without storing the matrix.
pub struct DirectG0<'a> {
    kernel: Kernel,
    positions: &'a [Point2],
}

impl<'a> DirectG0<'a> {
    /// Creates the direct operator over the given (tree-order) positions.
    pub fn new(kernel: Kernel, positions: &'a [Point2]) -> Self {
        DirectG0 { kernel, positions }
    }

    /// Applies `y = G0 x`.
    pub fn apply(&self, x: &[C64], y: &mut [C64]) {
        let n = self.positions.len();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for (m, ym) in y.iter_mut().enumerate() {
            let pm = self.positions[m];
            let mut acc = C64::ZERO;
            for (nn, &xn) in x.iter().enumerate() {
                let r = pm.dist(self.positions[nn]);
                acc += self.kernel.g0_element(if m == nn { 0.0 } else { r }) * xn;
            }
            *ym = acc;
        }
    }
}

/// Assembles the dense `G0` matrix (small problems / tests only).
pub fn assemble_g0(kernel: &Kernel, positions: &[Point2]) -> Matrix {
    let n = positions.len();
    Matrix::from_fn(n, n, |m, nn| {
        if m == nn {
            kernel.self_term
        } else {
            kernel.g0_element(positions[m].dist(positions[nn]))
        }
    })
}

/// Columns per chunk of a Hankel row: a chunk's arguments and values stay
/// in L1 between the distance pass and the Hankel pass.
const ROW_CHUNK: usize = 256;

/// The kernel body: `x[j] = k |p_j - src|`, one `mul_add` under the square
/// root (not `hypot`).
#[inline(always)]
fn arguments_body(k: f64, src: Point2, points: &[Point2], x: &mut [f64]) {
    for (x, p) in x.iter_mut().zip(points) {
        let (dx, dy) = (p.x - src.x, p.y - src.y);
        *x = k * dx.mul_add(dx, dy * dy).sqrt();
    }
}

fn arguments(k: f64, src: Point2, points: &[Point2], x: &mut [f64]) {
    dispatch!(arguments_body(k: f64, src: Point2, points: &[Point2], x: &mut [f64]));
}

/// Appends `scale * H0^(1)(k |p - src|)` for every `p` of `positions` to
/// `out`, a chunk at a time: the arguments, then one call of the lane-wise
/// Hankel function over them.
fn extend_h0_row(k: f64, src: Point2, positions: &[Point2], scale: C64, out: &mut Vec<C64>) {
    let mut x = [0.0; ROW_CHUNK];
    let mut h = [C64::ZERO; ROW_CHUNK];
    for chunk in positions.chunks(ROW_CHUNK) {
        let (x, h) = (&mut x[..chunk.len()], &mut h[..chunk.len()]);
        arguments(k, src, chunk, x);
        hankel1_0_into(x, scale, h);
        out.extend_from_slice(h);
    }
}

/// Assembles the dense receiver operator `GR` (`R x N`), a row per
/// receiver written straight into the matrix's storage:
/// `GR[r, n] = coupling * H0^(1)(k |r - r_n|)`.
pub fn assemble_gr(kernel: &Kernel, receivers: &TransducerArray, positions: &[Point2]) -> Matrix {
    let (rows, cols) = (receivers.len(), positions.len());
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let src = receivers.position(r);
        extend_h0_row(kernel.k, src, positions, kernel.coupling, &mut data);
    }
    Matrix::from_vec(rows, cols, data)
}

/// Incident field of transmitter `t` on all pixels (tree order):
/// `(i/4) H0^(1)(k |r_n - r_t|)`, as [`Kernel::incident_line_source`].
pub fn incident_field(
    kernel: &Kernel,
    transmitters: &TransducerArray,
    t: usize,
    positions: &[Point2],
) -> Vec<C64> {
    let mut field = Vec::with_capacity(positions.len());
    let src = transmitters.position(t);
    extend_h0_row(kernel.k, src, positions, QUARTER_I, &mut field);
    field
}

/// Incident plane wave `e^{i k khat . r}` travelling at angle `theta`.
pub fn incident_plane_wave(kernel: &Kernel, theta: f64, positions: &[Point2]) -> Vec<C64> {
    let khat = Point2::unit(theta);
    positions
        .iter()
        .map(|p| C64::cis(kernel.k * khat.dot(*p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::vecops::rel_diff;

    fn setup() -> (Domain, QuadTree, Kernel) {
        let domain = Domain::new(32, 1.0);
        let tree = QuadTree::new(&domain);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        (domain, tree, kernel)
    }

    #[test]
    fn direct_matches_assembled_matrix() {
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        let g = assemble_g0(&kernel, &pos);
        let x: Vec<C64> = (0..pos.len())
            .map(|i| C64::cis(i as f64 * 0.7) * (1.0 + (i % 5) as f64))
            .collect();
        let mut y1 = vec![C64::ZERO; pos.len()];
        DirectG0::new(kernel, &pos).apply(&x, &mut y1);
        let mut y2 = vec![C64::ZERO; pos.len()];
        g.matvec(&x, &mut y2);
        assert!(rel_diff(&y1, &y2) < 1e-13);
    }

    #[test]
    fn g0_is_complex_symmetric() {
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        let g = assemble_g0(&kernel, &pos);
        for m in (0..pos.len()).step_by(97) {
            for n in (0..pos.len()).step_by(89) {
                assert!((g.at(m, n) - g.at(n, m)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn incident_field_reciprocity() {
        // Field of tx at pixel == field of a source at the pixel evaluated at tx.
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        let txs = TransducerArray::ring(4, 3.0 * domain.side());
        let f0 = incident_field(&kernel, &txs, 0, &pos);
        let d = pos[10].dist(txs.position(0));
        assert!((f0[10] - kernel.incident_line_source(d)).abs() < 1e-15);
    }

    #[test]
    fn plane_wave_unit_modulus() {
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        let pw = incident_plane_wave(&kernel, 0.3, &pos);
        assert!(pw.iter().all(|v| (v.abs() - 1.0).abs() < 1e-12));
        let _ = domain;
    }

    /// Rows built a chunk at a time are the element functions at every
    /// entry, to what one ulp of distance (`sqrt(fma(dx, dx, dy^2))`
    /// against `hypot`) moves them: 1e-12 above the series cutoff, where the default
    /// 2x-side ring keeps every argument, and the ascending series' own
    /// rounding noise (~4e-12 near `k r = 12`) on a ring close enough to put
    /// arguments below it.
    #[test]
    fn rows_are_the_element_functions() {
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        for (factor, tol) in [(2.0, 1e-12), (0.75, 2e-11)] {
            let ring = TransducerArray::ring(5, factor * domain.side());
            let gr = assemble_gr(&kernel, &ring, &pos);
            for r in 0..ring.len() {
                let field = incident_field(&kernel, &ring, r, &pos);
                for (n, p) in pos.iter().enumerate() {
                    let d = ring.position(r).dist(*p);
                    let (g, v) = (kernel.gr_element(d), kernel.incident_line_source(d));
                    assert!((gr.at(r, n) - g).abs() <= tol * g.abs(), "GR[{r}, {n}]");
                    assert!((field[n] - v).abs() <= tol * v.abs(), "incident {r} at {n}");
                }
            }
        }
    }

    #[test]
    fn gr_shape_and_elements() {
        let (domain, tree, kernel) = setup();
        let pos = tree_positions(&domain, &tree);
        let rx = TransducerArray::ring(6, 2.0 * domain.side());
        let gr = assemble_gr(&kernel, &rx, &pos);
        assert_eq!(gr.rows(), 6);
        assert_eq!(gr.cols(), pos.len());
        let d = rx.position(2).dist(pos[5]);
        assert!((gr.at(2, 5) - kernel.gr_element(d)).abs() < 1e-15);
    }
}

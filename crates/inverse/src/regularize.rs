//! The regularization seam on the DBIM linear step.
//!
//! Plain DBIM regularizes only by early termination (paper Section V-B),
//! which stalls exactly where multiple scattering matters most: high
//! contrast and limited apertures. This module provides the selectable
//! [`Regularizer`] applied to each outer iteration's linearized update:
//!
//! * [`Regularizer::Tikhonov`] — the scalar `lambda ||O||^2` penalty folded
//!   into the nonlinear-CG gradient and step (the pre-existing behavior;
//!   `lambda = 0` is the paper's unregularized method);
//! * [`Regularizer::WgcvLsqr`] — hybrid-projection LSQR (Chung–Gazzola):
//!   `k` steps of Golub–Kahan bidiagonalization of the Fréchet operator
//!   project the linearized problem onto a small Krylov subspace, the
//!   projected Tikhonov parameter is chosen *automatically* by weighted
//!   GCV on the bidiagonal system, and the update is lifted back. The
//!   chosen lambda per outer iteration is reported in
//!   [`crate::DbimResult::lambdas`].
//!
//! Everything here is deterministic: the bidiagonalization is seeded by the
//! residual, the small SVD is a fixed-sweep one-sided Jacobi, and the wGCV
//! minimizer is a fixed logarithmic grid scan — no randomness, so the
//! thread-invariance and repeat-determinism suites hold bit-for-bit.

/// Default Golub–Kahan steps for the hybrid projection.
pub const DEFAULT_WGCV_STEPS: usize = 4;
/// Default wGCV weight `omega` (< 1 regularizes slightly more than plain
/// GCV, the usual hybrid-projection recommendation).
pub const DEFAULT_WGCV_OMEGA: f64 = 0.8;

/// Regularization applied to the DBIM linearized step. See the module docs
/// for the two families; parse from CLI/serve strings with [`std::str::FromStr`]
/// (`"tikhonov[:LAMBDA]"`, `"wgcv-lsqr[:STEPS[:OMEGA]]"`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Regularizer {
    /// Scalar Tikhonov penalty `lambda ||O||^2` on the nonlinear-CG step
    /// (absolute weight; `0.0` = unregularized, the default).
    Tikhonov {
        /// Absolute penalty weight.
        lambda: f64,
    },
    /// Hybrid-projection LSQR with automatic weighted-GCV lambda selection
    /// on the projected bidiagonal problem.
    WgcvLsqr {
        /// Golub–Kahan bidiagonalization steps (projection dimension).
        steps: usize,
        /// GCV weight `omega` (1.0 = standard GCV; < 1 regularizes more).
        omega: f64,
    },
}

impl Default for Regularizer {
    fn default() -> Self {
        Regularizer::Tikhonov { lambda: 0.0 }
    }
}

impl Regularizer {
    /// Canonical spec string that [`std::str::FromStr`] parses back to `self`.
    pub fn to_spec_string(&self) -> String {
        match self {
            Regularizer::Tikhonov { lambda } => format!("tikhonov:{lambda}"),
            Regularizer::WgcvLsqr { steps, omega } => format!("wgcv-lsqr:{steps}:{omega}"),
        }
    }
}

impl std::fmt::Display for Regularizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_spec_string())
    }
}

impl std::str::FromStr for Regularizer {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let family = parts.next().unwrap_or("");
        let p1 = parts.next();
        let p2 = parts.next();
        if parts.next().is_some() {
            return Err(format!("regularizer '{s}' has too many ':' parameters"));
        }
        let pos_f64 = |v: Option<&str>, what: &str, default: f64| -> Result<f64, String> {
            match v {
                None => Ok(default),
                Some(t) => match t.parse::<f64>() {
                    Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
                    _ => Err(format!("{what} '{t}' must be a finite non-negative number")),
                },
            }
        };
        match family {
            "tikhonov" => {
                if p2.is_some() {
                    return Err("tikhonov takes at most one parameter (lambda)".into());
                }
                Ok(Regularizer::Tikhonov {
                    lambda: pos_f64(p1, "tikhonov lambda", 0.0)?,
                })
            }
            "wgcv-lsqr" => {
                let steps = match p1 {
                    None => DEFAULT_WGCV_STEPS,
                    Some(t) => match t.parse::<usize>() {
                        Ok(k) if (1..=32).contains(&k) => k,
                        _ => {
                            return Err(format!(
                                "wgcv-lsqr steps '{t}' must be an integer in 1..=32"
                            ))
                        }
                    },
                };
                let omega = pos_f64(p2, "wgcv-lsqr omega", DEFAULT_WGCV_OMEGA)?;
                if !(0.0..=1.5).contains(&omega) || omega == 0.0 {
                    return Err(format!("wgcv-lsqr omega {omega} must be in (0, 1.5]"));
                }
                Ok(Regularizer::WgcvLsqr { steps, omega })
            }
            other => Err(format!(
                "unknown regularizer '{other}' (one of tikhonov[:LAMBDA], \
                 wgcv-lsqr[:STEPS[:OMEGA]])"
            )),
        }
    }
}

/// The lower-bidiagonal matrix `B_k` ((k+1) x k) produced by Golub–Kahan
/// bidiagonalization: `alphas[i]` on the diagonal, `betas[i]` on the
/// subdiagonal (`betas[i]` couples row `i+1` to column `i`).
#[derive(Clone, Debug)]
pub struct Bidiag {
    /// Diagonal entries `alpha_1..alpha_k` (all > 0 by construction).
    pub alphas: Vec<f64>,
    /// Subdiagonal entries `beta_2..beta_{k+1}`.
    pub betas: Vec<f64>,
}

impl Bidiag {
    /// Effective projection dimension `k`.
    pub fn k(&self) -> usize {
        self.alphas.len()
    }
}

/// The projected least-squares problem `min ||B_k y - beta_1 e_1||^2 +
/// lambda^2 ||y||^2` in its SVD coordinates — the small dense object the
/// wGCV parameter search and the regularized solve both run on.
pub struct ProjectedProblem {
    /// Singular values of `B_k`, descending.
    sigma: Vec<f64>,
    /// `c_i = beta_1 * (P^T e_1)_i` — data coefficients along the left
    /// singular vectors.
    c: Vec<f64>,
    /// `||beta_1 e_1||^2 - sum c_i^2`: the residual component outside the
    /// range of `B_k` (irreducible at any lambda).
    c_perp_sqr: f64,
    /// Right singular vectors, `v[i]` the i-th column (length k).
    v: Vec<Vec<f64>>,
}

/// Applies the Jacobi rotation `(cs, sn)` to column pair `i < j` of a
/// column-major matrix.
fn rotate_columns(mat: &mut [Vec<f64>], i: usize, j: usize, cs: f64, sn: f64) {
    let (head, tail) = mat.split_at_mut(j);
    for (x, y) in head[i].iter_mut().zip(tail[0].iter_mut()) {
        let (a, b) = (*x, *y);
        *x = cs * a - sn * b;
        *y = sn * a + cs * b;
    }
}

impl ProjectedProblem {
    /// Builds the SVD form of the projected problem via one-sided Jacobi on
    /// the dense `(k+1) x k` bidiagonal matrix — `k` is a handful, so the
    /// cost is negligible and the fixed sweep count keeps it deterministic.
    pub fn new(b: &Bidiag, beta1: f64) -> ProjectedProblem {
        let k = b.k();
        let m = k + 1;
        // columns[j][row]
        let mut cols: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
        for j in 0..k {
            cols[j][j] = b.alphas[j];
            cols[j][j + 1] = b.betas[j];
        }
        let mut v: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let mut e = vec![0.0; k];
                e[i] = 1.0;
                e
            })
            .collect();
        // One-sided Jacobi: orthogonalize column pairs until off-diagonal
        // correlation is negligible (30 sweeps is far beyond convergence for
        // k <= 32; typically 3-4 sweeps suffice).
        for _sweep in 0..30 {
            let mut off = 0.0f64;
            for i in 0..k {
                for j in (i + 1)..k {
                    let (mut aa, mut bb, mut cc) = (0.0f64, 0.0f64, 0.0f64);
                    for (&x, &y) in cols[i].iter().zip(&cols[j]).take(m) {
                        aa += x * x;
                        bb += y * y;
                        cc += x * y;
                    }
                    if cc.abs() <= 1e-15 * (aa * bb).sqrt().max(1e-300) {
                        continue;
                    }
                    off = off.max(cc.abs() / (aa * bb).sqrt().max(1e-300));
                    let zeta = (bb - aa) / (2.0 * cc);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let cs = 1.0 / (1.0 + t * t).sqrt();
                    let sn = cs * t;
                    rotate_columns(&mut cols, i, j, cs, sn);
                    rotate_columns(&mut v, i, j, cs, sn);
                }
            }
            if off < 1e-14 {
                break;
            }
        }
        // Singular values = column norms; left vectors = normalized columns.
        let mut order: Vec<usize> = (0..k).collect();
        let norms: Vec<f64> = cols
            .iter()
            .map(|c| c.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("finite norms"));
        let mut sigma = Vec::with_capacity(k);
        let mut c = Vec::with_capacity(k);
        let mut vs = Vec::with_capacity(k);
        for &j in &order {
            sigma.push(norms[j]);
            // c_i = beta1 * w_i[0] where w_i = col_j / ||col_j||
            let w0 = if norms[j] > 0.0 {
                cols[j][0] / norms[j]
            } else {
                0.0
            };
            c.push(beta1 * w0);
            vs.push(v[j].clone());
        }
        let c_perp_sqr = (beta1 * beta1 - c.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        ProjectedProblem {
            sigma,
            c,
            c_perp_sqr,
            v: vs,
        }
    }

    /// Weighted-GCV function at `lambda` (up to a constant factor):
    /// `G(l) = num / den`, `num = sum (l^2 c_i / (s_i^2+l^2))^2 + c_perp^2`,
    /// `den = (m - w * sum s_i^2/(s_i^2+l^2))^2` with `m = k+1` rows.
    pub fn wgcv(&self, lambda: f64, omega: f64) -> f64 {
        let l2 = lambda * lambda;
        let mut num = self.c_perp_sqr;
        let mut filt = 0.0f64;
        for (s, c) in self.sigma.iter().zip(&self.c) {
            let s2 = s * s;
            let d = s2 + l2;
            if d > 0.0 {
                num += (l2 * c / d) * (l2 * c / d);
                filt += s2 / d;
            }
        }
        let den = (self.sigma.len() as f64 + 1.0) - omega * filt;
        num / (den * den).max(1e-300)
    }

    /// Minimizes the wGCV function over a fixed logarithmic lambda grid
    /// spanning the singular spectrum (deterministic; 300 samples resolve
    /// the shallow GCV valley far below the reconstruction's sensitivity).
    pub fn wgcv_lambda(&self, omega: f64) -> f64 {
        let s_max = self.sigma.first().copied().unwrap_or(1.0).max(1e-300);
        let s_min = self
            .sigma
            .iter()
            .rev()
            .find(|s| **s > 0.0)
            .copied()
            .unwrap_or(s_max);
        let lo = (s_min * 1e-6).max(s_max * 1e-12);
        let hi = s_max * 10.0;
        let n = 300usize;
        let mut best = (self.wgcv(0.0, omega), 0.0f64);
        let ratio = (hi / lo).ln();
        for i in 0..=n {
            let l = lo * (ratio * i as f64 / n as f64).exp();
            let g = self.wgcv(l, omega);
            if g < best.0 {
                best = (g, l);
            }
        }
        best.1
    }

    /// Solves the projected Tikhonov problem at `lambda`, returning the
    /// coefficient vector `y` (length k) in the original Krylov basis.
    pub fn solve(&self, lambda: f64) -> Vec<f64> {
        let k = self.sigma.len();
        let l2 = lambda * lambda;
        let mut y = vec![0.0; k];
        for i in 0..k {
            let s = self.sigma[i];
            let d = s * s + l2;
            if d <= 0.0 {
                continue;
            }
            let w = s * self.c[i] / d;
            for (yj, vj) in y.iter_mut().zip(&self.v[i]) {
                *yj += w * vj;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_defaults() {
        for s in [
            "tikhonov",
            "tikhonov:0.5",
            "wgcv-lsqr",
            "wgcv-lsqr:6",
            "wgcv-lsqr:6:1.0",
        ] {
            let r: Regularizer = s.parse().expect(s);
            let back: Regularizer = r.to_spec_string().parse().expect("canonical");
            assert_eq!(r, back, "{s}");
        }
        assert_eq!(
            "tikhonov".parse::<Regularizer>().expect("default"),
            Regularizer::default()
        );
        assert_eq!(
            "wgcv-lsqr".parse::<Regularizer>().expect("default"),
            Regularizer::WgcvLsqr {
                steps: DEFAULT_WGCV_STEPS,
                omega: DEFAULT_WGCV_OMEGA
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "banana",
            "tikhonov:-1",
            "tikhonov:x",
            "tikhonov:1:2",
            "wgcv-lsqr:0",
            "wgcv-lsqr:33",
            "wgcv-lsqr:4:0",
            "wgcv-lsqr:4:2.0",
            "wgcv-lsqr:4:1:9",
            "smoothness",
            "smoothness:0.1",
        ] {
            assert!(bad.parse::<Regularizer>().is_err(), "{bad} should fail");
        }
    }

    /// SVD sanity on a known bidiagonal: the identity-like system where
    /// alphas = 1, betas = 0 has all singular values 1 and reproduces the
    /// unregularized solution at lambda = 0.
    #[test]
    fn projected_problem_identity() {
        let b = Bidiag {
            alphas: vec![1.0, 1.0, 1.0],
            betas: vec![0.0, 0.0, 0.0],
        };
        let p = ProjectedProblem::new(&b, 2.0);
        for s in &p.sigma {
            assert!((s - 1.0).abs() < 1e-12);
        }
        let y = p.solve(0.0);
        // B y = 2 e1  ->  y = (2, 0, 0)
        assert!((y[0] - 2.0).abs() < 1e-12, "{y:?}");
        assert!(y[1].abs() < 1e-12 && y[2].abs() < 1e-12);
    }

    /// wGCV picks a large lambda when the data is pure noise outside the
    /// range (c_i ~ 0) and a small one when the data is consistent.
    #[test]
    fn wgcv_lambda_tracks_consistency() {
        // Ill-conditioned spectrum with data concentrated on the dominant
        // direction: the consistent problem wants little regularization.
        let b = Bidiag {
            alphas: vec![1.0, 1e-3],
            betas: vec![0.0, 0.0],
        };
        let p = ProjectedProblem::new(&b, 1.0);
        let l_consistent = p.wgcv_lambda(1.0);
        assert!(l_consistent < 0.1, "consistent data: {l_consistent}");
        // Same spectrum but the data lives in the irreducible complement
        // (simulated by shifting weight to c_perp): lambda must grow.
        let p_noisy = ProjectedProblem {
            sigma: vec![1.0, 1e-3],
            c: vec![1e-6, 1e-3],
            c_perp_sqr: 1.0,
            v: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        };
        let l_noisy = p_noisy.wgcv_lambda(1.0);
        assert!(
            l_noisy > l_consistent,
            "noisy {l_noisy} vs consistent {l_consistent}"
        );
    }

    /// The regularized projected solution shrinks monotonically with lambda.
    #[test]
    fn solve_shrinks_with_lambda() {
        let b = Bidiag {
            alphas: vec![0.9, 0.4, 0.1],
            betas: vec![0.3, 0.2, 0.05],
        };
        let p = ProjectedProblem::new(&b, 1.5);
        let norm = |y: &[f64]| y.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut prev = f64::INFINITY;
        for l in [0.0, 0.01, 0.1, 1.0, 10.0] {
            let n = norm(&p.solve(l));
            assert!(n <= prev + 1e-12, "lambda {l}: {n} > {prev}");
            prev = n;
        }
    }
}

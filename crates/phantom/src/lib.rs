//! # ffw-phantom
//!
//! Numerical phantoms for the imaging experiments: the Shepp–Logan head
//! section (paper Fig. 13), the high-contrast homogeneous annulus (Fig. 1),
//! circular cylinders (validation against the analytic Mie series), and
//! random smooth blobs (property tests, workload generation).
//!
//! A phantom defines the dielectric permittivity *contrast*
//! `delta_eps_r(r)`; the solver's object function is
//! `O(r) = k0^2 delta_eps_r(r)` (paper Section VI-A).

pub mod scenario;

pub use scenario::{
    lossy_object_from_contrast, scenario_zoo, Aperture, Lossy, NoiseModel, Scenario,
};

use ffw_geometry::{Domain, Point2, QuadTree};
use ffw_numerics::{c64, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A spatial permittivity-contrast distribution.
pub trait Phantom {
    /// Permittivity contrast at a point (0 = background).
    fn contrast_at(&self, p: Point2) -> f64;

    /// Rasterizes the contrast onto the domain's pixel centers, row-major
    /// grid order.
    fn rasterize(&self, domain: &Domain) -> Vec<f64> {
        (0..domain.n_pixels())
            .map(|i| self.contrast_at(domain.pixel_center_rm(i)))
            .collect()
    }
}

/// Converts a grid-order contrast raster into the solver's tree-order
/// complex object vector `O = k0^2 * contrast`.
pub fn object_from_contrast(domain: &Domain, tree: &QuadTree, contrast: &[f64]) -> Vec<C64> {
    assert_eq!(contrast.len(), domain.n_pixels());
    let k0sq = domain.k0() * domain.k0();
    let complex: Vec<C64> = contrast.iter().map(|&c| c64(k0sq * c, 0.0)).collect();
    tree.to_tree_order(&complex)
}

/// Recovers the real contrast raster (grid order) from a tree-order object
/// vector (drops any imaginary part picked up during optimization).
pub fn contrast_from_object(domain: &Domain, tree: &QuadTree, object: &[C64]) -> Vec<f64> {
    let grid = tree.to_grid_order(object);
    let inv = 1.0 / (domain.k0() * domain.k0());
    grid.iter().map(|o| o.re * inv).collect()
}

/// A homogeneous circular cylinder.
#[derive(Clone, Debug)]
pub struct Cylinder {
    /// Center position.
    pub center: Point2,
    /// Radius.
    pub radius: f64,
    /// Permittivity contrast inside.
    pub contrast: f64,
}

impl Phantom for Cylinder {
    fn contrast_at(&self, p: Point2) -> f64 {
        if p.dist(self.center) <= self.radius {
            self.contrast
        } else {
            0.0
        }
    }
}

/// The high-contrast homogeneous annular object of the paper's Fig. 1.
#[derive(Clone, Debug)]
pub struct Annulus {
    /// Center position.
    pub center: Point2,
    /// Inner radius (hole).
    pub inner: f64,
    /// Outer radius.
    pub outer: f64,
    /// Permittivity contrast of the ring material.
    pub contrast: f64,
}

impl Phantom for Annulus {
    fn contrast_at(&self, p: Point2) -> f64 {
        let r = p.dist(self.center);
        if r >= self.inner && r <= self.outer {
            self.contrast
        } else {
            0.0
        }
    }
}

/// One ellipse of the Shepp–Logan phantom, in normalized `[-1, 1]^2` coords.
#[derive(Clone, Copy, Debug)]
struct Ellipse {
    x0: f64,
    y0: f64,
    a: f64,
    b: f64,
    /// rotation in degrees
    theta_deg: f64,
    value: f64,
}

/// The synthetic Shepp–Logan head phantom (Shepp & Logan 1974), scaled to a
/// target maximum contrast — the paper's Fig. 13 uses 0.02.
#[derive(Clone, Debug)]
pub struct SheppLogan {
    /// Half-width of the phantom in physical units (the `[-1,1]` box maps to
    /// `[-scale, scale]`).
    pub scale: f64,
    /// Maximum permittivity contrast after normalization.
    pub max_contrast: f64,
    ellipses: Vec<Ellipse>,
    raw_max: f64,
}

impl SheppLogan {
    /// Builds the standard 10-ellipse phantom.
    pub fn new(scale: f64, max_contrast: f64) -> Self {
        let ellipses = vec![
            Ellipse {
                x0: 0.0,
                y0: 0.0,
                a: 0.69,
                b: 0.92,
                theta_deg: 0.0,
                value: 2.0,
            },
            Ellipse {
                x0: 0.0,
                y0: -0.0184,
                a: 0.6624,
                b: 0.874,
                theta_deg: 0.0,
                value: -0.98,
            },
            Ellipse {
                x0: 0.22,
                y0: 0.0,
                a: 0.11,
                b: 0.31,
                theta_deg: -18.0,
                value: -0.02,
            },
            Ellipse {
                x0: -0.22,
                y0: 0.0,
                a: 0.16,
                b: 0.41,
                theta_deg: 18.0,
                value: -0.02,
            },
            Ellipse {
                x0: 0.0,
                y0: 0.35,
                a: 0.21,
                b: 0.25,
                theta_deg: 0.0,
                value: 0.01,
            },
            Ellipse {
                x0: 0.0,
                y0: 0.1,
                a: 0.046,
                b: 0.046,
                theta_deg: 0.0,
                value: 0.01,
            },
            Ellipse {
                x0: 0.0,
                y0: -0.1,
                a: 0.046,
                b: 0.046,
                theta_deg: 0.0,
                value: 0.01,
            },
            Ellipse {
                x0: -0.08,
                y0: -0.605,
                a: 0.046,
                b: 0.023,
                theta_deg: 0.0,
                value: 0.01,
            },
            Ellipse {
                x0: 0.0,
                y0: -0.605,
                a: 0.023,
                b: 0.023,
                theta_deg: 0.0,
                value: 0.01,
            },
            Ellipse {
                x0: 0.06,
                y0: -0.605,
                a: 0.023,
                b: 0.046,
                theta_deg: 0.0,
                value: 0.01,
            },
        ];
        SheppLogan {
            scale,
            max_contrast,
            ellipses,
            raw_max: 2.0, // the skull ellipse value dominates
        }
    }

    /// Sized to fill a fraction of the given domain.
    pub fn for_domain(domain: &Domain, max_contrast: f64) -> Self {
        Self::new(0.45 * domain.side(), max_contrast)
    }
}

impl Phantom for SheppLogan {
    fn contrast_at(&self, p: Point2) -> f64 {
        let x = p.x / self.scale;
        let y = p.y / self.scale;
        let mut v = 0.0;
        for e in &self.ellipses {
            let th = e.theta_deg.to_radians();
            let (s, c) = th.sin_cos();
            let dx = x - e.x0;
            let dy = y - e.y0;
            let xr = c * dx + s * dy;
            let yr = -s * dx + c * dy;
            if (xr / e.a).powi(2) + (yr / e.b).powi(2) <= 1.0 {
                v += e.value;
            }
        }
        v * self.max_contrast / self.raw_max
    }
}

/// A sum of smooth Gaussian blobs with reproducible random parameters.
#[derive(Clone, Debug)]
pub struct RandomBlobs {
    blobs: Vec<(Point2, f64, f64)>, // center, sigma, amplitude
}

impl RandomBlobs {
    /// `count` blobs inside a disc of `radius`, peak contrast `max_contrast`,
    /// deterministic in `seed`.
    pub fn new(count: usize, radius: f64, max_contrast: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let blobs = (0..count)
            .map(|_| {
                let r = radius * rng.gen::<f64>().sqrt() * 0.8;
                let th = rng.gen::<f64>() * std::f64::consts::TAU;
                let sigma = radius * (0.05 + 0.15 * rng.gen::<f64>());
                let amp = max_contrast * (0.3 + 0.7 * rng.gen::<f64>());
                (Point2::unit(th) * r, sigma, amp)
            })
            .collect();
        RandomBlobs { blobs }
    }
}

impl Phantom for RandomBlobs {
    fn contrast_at(&self, p: Point2) -> f64 {
        self.blobs
            .iter()
            .map(|&(c, sigma, amp)| amp * (-(p.dist(c) / sigma).powi(2) / 2.0).exp())
            .sum()
    }
}

/// A composite phantom: sum of parts.
pub struct Composite(pub Vec<Box<dyn Phantom + Sync>>);

impl Phantom for Composite {
    fn contrast_at(&self, p: Point2) -> f64 {
        self.0.iter().map(|ph| ph.contrast_at(p)).sum()
    }
}

/// Relative L2 error between two rasters (image-quality metric of the
/// reconstruction experiments).
pub fn image_rel_error(reconstructed: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(reconstructed.len(), truth.len());
    let num: f64 = reconstructed
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f64 = truth.iter().map(|b| b * b).sum();
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::pt;

    #[test]
    fn cylinder_inside_outside() {
        let c = Cylinder {
            center: pt(0.1, 0.0),
            radius: 0.5,
            contrast: 0.3,
        };
        assert_eq!(c.contrast_at(pt(0.1, 0.0)), 0.3);
        assert_eq!(c.contrast_at(pt(0.59, 0.0)), 0.3);
        assert_eq!(c.contrast_at(pt(0.61, 0.0)), 0.0);
    }

    #[test]
    fn annulus_has_hole() {
        let a = Annulus {
            center: Point2::ZERO,
            inner: 0.3,
            outer: 0.6,
            contrast: 0.5,
        };
        assert_eq!(a.contrast_at(Point2::ZERO), 0.0);
        assert_eq!(a.contrast_at(pt(0.45, 0.0)), 0.5);
        assert_eq!(a.contrast_at(pt(0.7, 0.0)), 0.0);
    }

    #[test]
    fn shepp_logan_structure() {
        let ph = SheppLogan::new(1.0, 0.02);
        // Center of the head: inside skull and brain -> small positive value.
        let center = ph.contrast_at(Point2::ZERO);
        assert!(center > 0.0 && center < 0.02, "center {center}");
        // Outside the skull: zero.
        assert_eq!(ph.contrast_at(pt(0.95, 0.0)), 0.0);
        // Skull rim (inside outer ellipse, outside brain): the maximum 0.02.
        let rim = ph.contrast_at(pt(0.0, 0.9));
        assert!((rim - 0.02).abs() < 1e-12, "rim {rim}");
        // Ventricles are darker than surrounding brain tissue.
        let ventricle = ph.contrast_at(pt(0.22, 0.0));
        let tissue = ph.contrast_at(pt(0.45, 0.0));
        assert!(ventricle < tissue);
    }

    #[test]
    fn rasterize_and_roundtrip_object() {
        let domain = Domain::new(32, 1.0);
        let tree = QuadTree::new(&domain);
        let ph = Cylinder {
            center: Point2::ZERO,
            radius: 0.8,
            contrast: 0.1,
        };
        let raster = ph.rasterize(&domain);
        assert_eq!(raster.len(), 1024);
        assert!(raster.iter().any(|&v| v > 0.0));
        let obj = object_from_contrast(&domain, &tree, &raster);
        let back = contrast_from_object(&domain, &tree, &obj);
        for (a, b) in raster.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        // object includes k0^2
        let k0sq = domain.k0() * domain.k0();
        let max_obj = obj.iter().map(|v| v.re).fold(0.0, f64::max);
        assert!((max_obj - 0.1 * k0sq).abs() < 1e-9);
    }

    #[test]
    fn random_blobs_deterministic_and_smooth() {
        let a = RandomBlobs::new(5, 1.0, 0.1, 42);
        let b = RandomBlobs::new(5, 1.0, 0.1, 42);
        let c = RandomBlobs::new(5, 1.0, 0.1, 43);
        let p = pt(0.2, -0.3);
        assert_eq!(a.contrast_at(p), b.contrast_at(p));
        assert_ne!(a.contrast_at(p), c.contrast_at(p));
        // smooth: nearby points have nearby values
        let q = pt(0.201, -0.3);
        assert!((a.contrast_at(p) - a.contrast_at(q)).abs() < 1e-2);
    }

    #[test]
    fn image_error_metric() {
        let t = vec![1.0, 0.0, 2.0];
        assert_eq!(image_rel_error(&t, &t), 0.0);
        let r = vec![0.0, 0.0, 0.0];
        assert!((image_rel_error(&r, &t) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn composite_sums() {
        let comp = Composite(vec![
            Box::new(Cylinder {
                center: Point2::ZERO,
                radius: 1.0,
                contrast: 0.1,
            }),
            Box::new(Cylinder {
                center: Point2::ZERO,
                radius: 0.5,
                contrast: 0.2,
            }),
        ]);
        assert!((comp.contrast_at(Point2::ZERO) - 0.3).abs() < 1e-14);
        assert!((comp.contrast_at(pt(0.7, 0.0)) - 0.1).abs() < 1e-14);
    }
}

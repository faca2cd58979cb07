//! The square imaging domain and its pixel discretization.
//!
//! The paper's setup (Fig. 3): a square domain `V` of side `D`, discretized
//! into `N` square pixels of side `lambda / 10` centered at the origin.

use crate::point::{pt, Point2};

/// Pixels per wavelength used throughout the paper (Section III-A).
pub const PIXELS_PER_WAVELENGTH: usize = 10;

/// A square imaging domain with a regular pixel grid, centered at the origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Domain {
    n_side: usize,
    wavelength: f64,
    pixel: f64,
}

impl Domain {
    /// Creates a domain of `n_side x n_side` pixels for the given wavelength,
    /// with the paper's lambda/10 pixel size.
    ///
    /// `n_side` must be a multiple of the MLFMA leaf size (8) for tree
    /// construction; the domain itself only requires `n_side >= 1`.
    pub fn new(n_side: usize, wavelength: f64) -> Self {
        assert!(n_side >= 1);
        assert!(wavelength > 0.0);
        Domain {
            n_side,
            wavelength,
            pixel: wavelength / PIXELS_PER_WAVELENGTH as f64,
        }
    }

    /// Domain whose side is `side_lambda` wavelengths (e.g. 102.4 -> 1024 px).
    pub fn from_side_lambda(side_lambda: f64, wavelength: f64) -> Self {
        let n = (side_lambda * PIXELS_PER_WAVELENGTH as f64).round() as usize;
        Domain::new(n, wavelength)
    }

    /// Domain with an explicit pixel size, decoupled from the wavelength —
    /// used by the multi-frequency reconstruction, whose stages image one
    /// physical domain at several wavelengths, each on a grid with at least
    /// the scene's pixels per wavelength. The pixel size must still resolve
    /// the field (`pixel <= lambda/10` recommended).
    pub fn with_pixel_size(n_side: usize, wavelength: f64, pixel: f64) -> Self {
        assert!(n_side >= 1);
        assert!(wavelength > 0.0 && pixel > 0.0);
        Domain {
            n_side,
            wavelength,
            pixel,
        }
    }

    /// Pixels per side.
    pub fn n_side(&self) -> usize {
        self.n_side
    }

    /// Total number of pixels `N`.
    pub fn n_pixels(&self) -> usize {
        self.n_side * self.n_side
    }

    /// Illumination wavelength in free space.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Background wavenumber `k0 = 2 pi / lambda`.
    pub fn k0(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.wavelength
    }

    /// Pixel side length (`lambda / 10`).
    pub fn pixel_size(&self) -> f64 {
        self.pixel
    }

    /// Physical side length `D` of the domain.
    pub fn side(&self) -> f64 {
        self.pixel * self.n_side as f64
    }

    /// Side length in wavelengths.
    pub fn side_lambda(&self) -> f64 {
        self.side() / self.wavelength
    }

    /// Radius of the equal-area disk replacing each square pixel in the
    /// collocation discretization: `pi a^2 = pixel^2`.
    pub fn equivalent_radius(&self) -> f64 {
        self.pixel / std::f64::consts::PI.sqrt()
    }

    /// Center position of pixel `(ix, iy)` (column, row), domain centered at
    /// the origin.
    #[inline]
    pub fn pixel_center(&self, ix: usize, iy: usize) -> Point2 {
        debug_assert!(ix < self.n_side && iy < self.n_side);
        let half = 0.5 * self.side();
        pt(
            (ix as f64 + 0.5) * self.pixel - half,
            (iy as f64 + 0.5) * self.pixel - half,
        )
    }

    /// Pixel center by row-major grid index `iy * n_side + ix`.
    #[inline]
    pub fn pixel_center_rm(&self, idx: usize) -> Point2 {
        self.pixel_center(idx % self.n_side, idx / self.n_side)
    }

    /// Radius of the smallest origin-centered circle containing the domain.
    pub fn bounding_radius(&self) -> f64 {
        0.5 * self.side() * std::f64::consts::SQRT_2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        // 102.4 lambda x 102.4 lambda -> 1024^2 = 1M unknowns (paper Section V-C)
        let d = Domain::from_side_lambda(102.4, 1.0);
        assert_eq!(d.n_side(), 1024);
        assert_eq!(d.n_pixels(), 1 << 20);
        assert!((d.side_lambda() - 102.4).abs() < 1e-12);
        // 204.8 lambda -> 4M (Fig 13), 409.6 lambda -> 16M (Table III)
        assert_eq!(Domain::from_side_lambda(204.8, 1.0).n_pixels(), 1 << 22);
        assert_eq!(Domain::from_side_lambda(409.6, 1.0).n_pixels(), 1 << 24);
    }

    #[test]
    fn geometry_is_centered() {
        let d = Domain::new(4, 2.0);
        assert!((d.pixel_size() - 0.2).abs() < 1e-15);
        let c00 = d.pixel_center(0, 0);
        let c33 = d.pixel_center(3, 3);
        assert!((c00 + c33).norm() < 1e-15, "symmetric about origin");
        assert!((c00.x - (-0.3)).abs() < 1e-15);
        // neighbouring pixel centers are one pixel apart
        let c10 = d.pixel_center(1, 0);
        assert!((c10.x - c00.x - d.pixel_size()).abs() < 1e-15);
        assert_eq!(d.pixel_center_rm(5), d.pixel_center(1, 1));
    }

    #[test]
    fn k0_and_equivalent_radius() {
        let d = Domain::new(8, 1.0);
        assert!((d.k0() - 2.0 * std::f64::consts::PI).abs() < 1e-14);
        let a = d.equivalent_radius();
        assert!((std::f64::consts::PI * a * a - d.pixel_size().powi(2)).abs() < 1e-15);
        assert!((d.bounding_radius() - 0.4 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}

//! # ffw-greens
//!
//! The 2-D Helmholtz Green's operator substrate: matrix elements of `G0`
//! (pixel-pixel), `GR` (pixel-receiver) and `GT` (transmitter-pixel) under
//! the equivalent-disk collocation discretization, incident fields, dense
//! `O(N^2)` reference operators, and the analytic Mie-series oracle used to
//! validate the forward solver against exact physics.

pub mod direct;
pub mod kernel;
pub mod mie;

pub use direct::{
    assemble_g0, assemble_gr, incident_field, incident_plane_wave, tree_positions, DirectG0,
};
pub use kernel::Kernel;
pub use mie::MieCylinder;

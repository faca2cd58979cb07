//! # ffw-mlfma
//!
//! The multilevel fast multipole algorithm for the 2-D Helmholtz volume
//! integral operator: an `O(N)` matrix-vector product with the `N x N`
//! pairwise interaction matrix `G0`, factorized through hierarchical
//! plane-wave (diagonal-translator) expansions on the quad-tree of
//! `ffw-geometry`.
//!
//! This is the algorithmic core of the paper: every forward-scattering
//! solution inside the DBIM inversion multiplies by `G0` twice per BiCGStab
//! iteration, and MLFMA is what turns the `O(N^2)`/`O(N^3)` bottleneck into
//! the `O(N)` kernel that scales to millions of unknowns.
//!
//! The kernel bodies run through `ffw_numerics::dispatch!`: the `avx2,fma`
//! instance where the CPU has both, the portable body elsewhere.

pub mod engine;
pub mod farfield;
pub mod interp;
pub mod kernels;
pub mod local;
pub mod near;
pub mod params;
pub mod plan;

pub use engine::MlfmaEngine;
pub use farfield::FarField;
pub use interp::lagrange_interp_matrix;
pub use local::{LocalExpansion, MultipoleExpansion};
pub use near::NearField;
pub use params::Accuracy;
pub use plan::{offset_index, translator, LevelPlan, MlfmaPlan, OperatorCensus, PlanStats};

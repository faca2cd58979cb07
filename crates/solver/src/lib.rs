//! # ffw-solver
//!
//! Iterative solvers over abstract linear operators: BiCGStab (the paper's
//! forward solver — one block recurrence, width 1 is a panel), CGNR, and the
//! forward-scattering system `A = I - G0 diag(O)` together with its adjoint
//! (via the complex-symmetry of the Green's operator).
//!
//! BiCGStab has two entry points, both under one breakdown policy (a broken
//! column is retried once, then fails typed): [`BicgstabBackend`], the
//! kernel bound to one `(G0, object)` pair, which every forward and adjoint
//! solve of a reconstruction goes through, and [`try_bicgstab_block`], the
//! kernel on any [`DistOp`].

pub mod block;
pub mod forward;
pub mod krylov;
pub mod op;
pub mod verify;
pub mod workspace;

pub use block::try_bicgstab_block;
pub use forward::{g0_adjoint_apply_block, AdjointScatteringOp, BicgstabBackend, ScatteringOp};
pub use krylov::{cgnr, IterConfig, SolveStats};
pub use op::{BlockLinOp, CountingOp, DiagonalOp, DistOp, FnOp, LinOp};
pub use verify::{
    checksum_mismatch, flip_panel_bit, flip_panel_bit_detectable, ComputeInjector, DriftGuard,
    VerifiedBlockOp, VerifyConfig, DEFAULT_CHECKSUM_REL_TOL, DEFAULT_DRIFT_PERIOD,
    DEFAULT_DRIFT_REL_TOL, DEFAULT_VERIFY_PERIOD,
};
pub use workspace::{Leased, Workspace};

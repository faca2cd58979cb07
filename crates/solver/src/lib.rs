//! # ffw-solver
//!
//! Iterative solvers over abstract linear operators: BiCGStab (the paper's
//! forward solver — one block recurrence, width 1 is a panel), CGNR, and the
//! forward-scattering system `A = I - G0 diag(O)` together with its adjoint
//! (via the complex-symmetry of the Green's operator). A reconstruction's
//! forward and adjoint solves go through [`BicgstabBackend`], the kernel
//! bound to one `(G0, object)` pair.

#![warn(missing_docs)]
// The crate itself has no unsafe code; `tests/alloc.rs` wraps the global allocator.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod forward;
pub mod krylov;
pub mod op;
pub mod precond;
pub mod verify;
pub mod workspace;

pub use block::{bicgstab_block, bicgstab_block_with, try_bicgstab_block};
pub use forward::{
    g0_adjoint_apply_block, solve_adjoint, solve_adjoint_block, solve_forward, solve_forward_block,
    AdjointScatteringOp, BicgstabBackend, PrecondPair, ScatteringOp,
};
pub use krylov::{bicgstab, cgnr, IterConfig, SolveStats};
pub use op::{BlockLinOp, CountingOp, DiagonalOp, DistOp, FnOp, IdentityOp, LinOp};
pub use precond::{IdentityPrecond, JacobiPrecond, Precond};
pub use verify::{
    flip_panel_bit, flip_panel_bit_detectable, ComputeInjector, DriftGuard, VerifiedBlockOp,
    VerifyConfig, DEFAULT_CHECKSUM_REL_TOL, DEFAULT_DRIFT_PERIOD, DEFAULT_DRIFT_REL_TOL,
    DEFAULT_VERIFY_PERIOD,
};
pub use workspace::{Leased, Workspace};

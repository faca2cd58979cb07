//! # ffw-solver
//!
//! Iterative forward engines over abstract linear operators: BiCGStab (the
//! paper's forward solver — one block recurrence, width 1 is a panel), CGNR,
//! the convergent Born-series fixed-point engine, and the forward-scattering
//! system `A = I - G0 diag(O)` together
//! with its adjoint (via the complex-symmetry of the Green's operator).
//!
//! Callers outside this crate pick an engine through the [`ForwardBackend`]
//! trait and [`make_backend`] — not by naming a solver function.

#![warn(missing_docs)]
// The crate itself has no unsafe code; `tests/alloc.rs` wraps the global allocator.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod block;
pub mod bornseries;
pub mod forward;
pub mod krylov;
pub mod op;
pub mod precond;
pub mod verify;
pub mod workspace;

pub use backend::{
    estimate_g0_norm, make_backend, max_object_abs, BackendChoice, BackendError, BicgstabBackend,
    ForwardBackend, PrecondPair, KAPPA_LIMIT, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED,
};
pub use block::{bicgstab_block, bicgstab_block_with, try_bicgstab_block};
pub use bornseries::{choose_gamma, BornSeriesBackend};
pub use forward::{
    g0_adjoint_apply, g0_adjoint_apply_block, solve_adjoint, solve_adjoint_block, solve_forward,
    solve_forward_block, AdjointScatteringOp, ScatteringOp,
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

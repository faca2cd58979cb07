//! # ffw-dist
//!
//! The paper's two-dimensional parallelization (Section IV): illuminations
//! distributed across rank groups, MLFMA sub-trees distributed within each
//! group, communication buffer aggregation, and overlap of communication with
//! computation — all over the `ffw-mpi` message-passing runtime.

// The fault-tolerant path: a failure is a typed `FaultError`, never an
// unwrap panic (tests may unwrap; see the root clippy.toml).
#![deny(clippy::unwrap_used)]

pub mod control;
pub mod engine;
pub mod ft;
pub mod local;
pub mod partition;
pub mod solver;
mod tag;

pub use control::{IterProgress, JobControl};
pub use engine::DistMlfma;
pub use ft::{run_dbim_ft, run_fingerprint, FtConfig, FtDbimResult};
pub use local::run_dbim_local;
pub use partition::{ExchangePlan, SubtreePartition, MAX_SUBTREE_RANKS};
pub use solver::try_allreduce_scalars;

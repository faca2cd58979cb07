//! # ffw-dist
//!
//! The paper's two-dimensional parallelization (Section IV): illuminations
//! distributed across rank groups, MLFMA sub-trees distributed within each
//! group, communication buffer aggregation, and overlap of communication with
//! computation — all over the `ffw-mpi` message-passing runtime.

#![warn(missing_docs)]

pub mod control;
pub mod engine;
pub mod ft;
pub mod local;
pub mod partition;
pub mod solver;

pub use control::{IterProgress, JobControl};
pub use engine::DistMlfma;
pub use ft::{run_dbim_ft, run_fingerprint, FtConfig, FtDbimResult};
pub use local::run_dbim_local;
pub use partition::{ExchangePlan, SubtreePartition, MAX_SUBTREE_RANKS};
pub use solver::try_allreduce_scalars;

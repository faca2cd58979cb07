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
pub mod partition;
pub mod solver;

pub use control::{IterProgress, JobControl};
pub use engine::DistMlfma;
pub use ft::{run_dbim_ft, FtConfig, FtDbimResult};
pub use partition::{ExchangePlan, SubtreePartition, MAX_SUBTREE_RANKS};
pub use solver::{
    allreduce_scalars, try_allreduce_scalars, try_dist_bicgstab_block, DistAdjointScatteringOp,
    DistG0Op, DistOp, DistScatteringOp,
};

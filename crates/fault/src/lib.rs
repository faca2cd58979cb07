//! # ffw-fault — seeded fault injection and crash-consistent recovery
//!
//! The paper's production runs (4,096 GPUs on Blue Waters) operate in a
//! regime where rank crashes, dropped messages and stragglers are routine.
//! This crate provides the three ingredients the rest of the workspace uses
//! to survive them:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of injected faults
//!   (crash rank N at its K-th MPI op, drop the J-th send on an edge,
//!   slow a rank down). `ffw-mpi` consults an activated plan at every
//!   runtime operation, so a given seed replays bit-identically.
//! * [`FaultError`] — the typed error surfaced when a fault (injected or
//!   organic) is observed: a dead peer, a lost send, a Krylov breakdown,
//!   a bad checkpoint. Ranks return these as values instead of panicking.
//! * [`Checkpoint`] — a from-scratch, checksummed, atomically-renamed
//!   on-disk snapshot of the DBIM outer-iteration state, enabling
//!   `--resume` to continue a killed reconstruction bit-identically. The
//!   loops stream it straight from their state ([`CheckpointFile`]) and
//!   [`durable`] makes it durable while the next iteration computes.
//!
//! The crate is dependency-free (a leaf) so both `ffw-mpi` and `ffw-dist`
//! can share its types without cycles; the chaos-test harness in
//! `tests/chaos.rs` exercises the whole stack end-to-end.

mod checkpoint;
pub mod durable;
mod error;
mod integrity;
mod plan;
mod shutdown;

pub use checkpoint::{
    checkpoint_checksum, fnv1a64, Checkpoint, CheckpointError, CheckpointFile, CheckpointWriter,
    Fingerprint,
};
pub use error::FaultError;
pub use integrity::{abft_lane_c64, abft_verify_c64, crc32, crc32_c64, crc32_update};
pub use plan::{
    splitmix64, ActiveFaults, ComputeFault, FaultPlan, OpAction, RetryPolicy, SendFault,
};
pub use shutdown::{
    install_shutdown_handler, request_shutdown, reset_shutdown, shutdown_requested,
};

//! # ffw-fault — compute-fault injection and crash-consistent recovery
//!
//! The paper's production runs (4,096 GPUs on Blue Waters) run for hours,
//! long enough for a process to be killed and for an arithmetic unit to
//! flip a bit. This crate provides the ingredients the rest of the
//! workspace uses to survive both:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of bit flips in
//!   checksum-verified panel applies (silent data corruption). A given seed
//!   replays bit-identically. The checksum lanes of reductions
//!   ([`abft_lane_c64`], [`abft_verify_c64`]) catch the same damage on a
//!   value that was sent.
//! * [`FaultError`] — the typed error surfaced when a fault is observed: a
//!   peer that ended early, persistent compute corruption, a Krylov
//!   breakdown, a bad checkpoint. Ranks return these as values instead of
//!   panicking.
//! * [`Checkpoint`] — a from-scratch, checksummed, atomically-renamed
//!   on-disk snapshot of the DBIM outer-iteration state, enabling
//!   `--resume` to continue a killed reconstruction bit-identically. The
//!   loops stream it straight from their state ([`CheckpointFile`]) and
//!   [`durable`] makes it durable while the next iteration computes.
//!   SIGTERM/SIGINT stop a run at its next boundary ([`shutdown_requested`]).
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
pub use integrity::{abft_lane_c64, abft_verify_c64};
pub use plan::{splitmix64, ActiveFaults, ComputeFault, FaultPlan, MAX_RECOMPUTES};
pub use shutdown::{
    install_shutdown_handler, request_shutdown, reset_shutdown, shutdown_requested,
};

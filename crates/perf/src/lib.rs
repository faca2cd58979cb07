//! # ffw-perf
//!
//! Mechanistic performance model of the paper's Blue Waters campaign: node
//! models for the XE6/XK7 nodes (Table II), a Gemini-like network, per-
//! operation MLFMA pricing driven by the *real* plan work and exchange
//! schedules, and a whole-application schedule simulator regenerating the
//! scaling figures (9–12) and tables (III–IV).
//!
//! This crate substitutes for the hardware the paper ran on (see DESIGN.md,
//! substitution table): the algorithmic quantities (flops, bytes, messages,
//! iteration structure) come from the genuine solver data structures; only
//! the *rates* are modeled, with a single global constant calibrated to the
//! paper's 64-GPU-node baseline.

pub mod app;
pub mod experiments;
pub mod machine;
pub mod opmodel;

pub use app::{mean_bicgs_iters, simulate, AppConfig, AppResult, Device};
pub use experiments::{
    calibrate, fig10, fig11, fig12, fig13_projection, fig9, table4, Fig13Projection, PlanLib,
    ScalePoint, Table4Row, CALIBRATION_SECONDS,
};
pub use machine::{gemini, xe6_cpu, xk7_gpu, NetworkModel, NodeModel};
pub use opmodel::{matvec_time, table3, MatvecComm, MatvecWork, OpBreakdown, Table3Row};

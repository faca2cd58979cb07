//! # ffw-inverse
//!
//! The inverse-scattering solvers: the distorted Born iterative method
//! (DBIM, the paper's full-wave multiple-scattering reconstruction) with
//! nonlinear conjugate-gradient optimization, and the linear Born
//! (single-scattering) baseline it is compared against in Figs. 1–2.

pub mod born;
pub mod dbim;
pub mod multifreq;
pub mod ops;
pub mod problem;
pub mod regularize;

pub use born::{born_inversion, BornConfig, BornResult};
pub use dbim::{
    dbim, dbim_hooked, dbim_loop, DbimConfig, DbimError, DbimResult, Flow, IterationHook,
    IterationRecord, LoopState, RankContext, SolveCount, SolveCounts, LINEAR_STEP_TOL,
};
pub use multifreq::{
    hop_stages, multi_frequency_dbim, multi_frequency_dbim_with, FrequencyHop, HopCheckpoint,
    HopSchedule, MultiFreqConfig, MultiFreqError, MultiFreqResult, StageResult,
};
pub use ops::MlfmaG0;
pub use problem::{add_noise, synthesize_measurements, ImagingSetup};
pub use regularize::Regularizer;

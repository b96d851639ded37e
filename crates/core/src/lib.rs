//! Ant Colony Optimisation core — the paper's contribution.
//!
//! Two halves:
//!
//! * [`cpu`] — the sequential ACOTSP-style Ant System the paper benchmarks
//!   against (plus a multi-threaded colony and the ACS / MMAS variants from
//!   the paper's future work), instrumented with an operation-counting CPU
//!   cost model;
//! * [`gpu`] — the paper's GPU kernel strategies implemented against the
//!   [`aco_simt`] simulator: all eight tour-construction versions of
//!   Table II and all five pheromone-update versions of Tables III/IV,
//!   their analytic cost models, and a full-iteration orchestrator.

pub mod cpu;
pub mod gpu;
pub mod lifecycle;
pub mod params;
pub mod quality;

pub use aco_localsearch::{LocalSearch, LsScope};
pub use cpu::{
    AcsParams, AntColonySystem, AntSystem, CpuModel, MaxMinAntSystem, MmasParams, OpCounter,
    ParallelAntSystem, TourPolicy,
};
pub use gpu::{GpuAntColonySystem, GpuAntSystem, PheromoneStrategy, TourStrategy};
pub use lifecycle::{
    drive, CancelToken, Colony, IterationEvent, PhaseMs, RunOutcome, SolveCtx, Step, StopReason,
};
pub use params::AcoParams;

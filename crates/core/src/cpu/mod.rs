//! CPU-side algorithms: the sequential ACOTSP-style Ant System baseline the
//! paper measures against, its operation-counting cost model, a
//! multi-threaded colony, and the ACS / MMAS variants the paper names as
//! future work.

pub mod acs;
pub mod ant_system;
pub mod counter;
pub mod elitist;
mod local_search;
pub mod mmas;
pub mod parallel;
pub mod pricing;

pub use acs::{AcsParams, AntColonySystem};
pub use ant_system::{AntSystem, IterationReport, PhaseCounters, TourPolicy, TourScratch};
pub use counter::{CpuModel, OpCounter};
pub use elitist::{Elitism, ElitistAntSystem};
pub use mmas::{MaxMinAntSystem, MmasParams};
pub use parallel::{construct_parallel, ParallelAntSystem};
pub use pricing::{cpu_ls_colony_ms, cpu_ls_iter_ms, cpu_phase_ms, LS_ROUNDS_EST};

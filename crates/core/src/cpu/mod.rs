//! CPU-side algorithms: the sequential ACOTSP-style Ant System baseline the
//! paper measures against, its operation-counting cost model, a
//! multi-threaded colony, and the ACS / MMAS variants the paper names as
//! future work.
//!
//! Every colony runs on one core (`construct.rs`): one trail/heuristic
//! structure (`tau`, `eta^β` computed once, `tau^α · eta^β` over the cells
//! a rule reads) and one tour walk on a reusable [`TourScratch`]. AS, parallel AS and MMAS share its
//! candidate-list and full roulettes; ACS adds only its
//! pseudo-random-proportional rule and local update on the same scratch.

pub mod acs;
pub mod ant_system;
mod construct;
pub mod counter;
mod local_search;
pub mod mmas;
pub mod parallel;
pub mod pricing;

pub use acs::{AcsParams, AntColonySystem};
pub use ant_system::{AntSystem, IterationReport, PhaseCounters, TourPolicy};
pub use construct::TourScratch;
pub use counter::{CpuModel, OpCounter};
pub use mmas::{MaxMinAntSystem, MmasParams};
pub use parallel::{construct_parallel, ParallelAntSystem};
pub use pricing::{cpu_ls_colony_ms, cpu_ls_iter_ms, cpu_phase_ms, LS_ROUNDS_EST};

//! GPU designs for the ACO algorithm (Section IV of the paper), written
//! against the [`aco_simt`] simulator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aco_localsearch::{LocalSearch, LsScope, LsScratch, OrOptDev, TwoOptDev};
use aco_simt::{DeviceSpec, GlobalMem, SimMode, SimtError};
use aco_tsp::{NearestNeighborLists, Tour, TspInstance};

pub mod acs;
pub mod buffers;
pub mod choice;
pub mod pheromone;
pub mod system;
pub mod tour;

pub use acs::GpuAntColonySystem;
pub use buffers::{ColonyBuffers, THETA};
pub use pheromone::{run_pheromone, run_pheromone_threads, PheromoneRun, PheromoneStrategy};
pub use system::{GpuAntSystem, GpuIterationReport};
pub use tour::{run_tour, run_tour_threads, TourRun, TourStrategy};

/// The simulation fidelity for an instance of `n` cities: every block up
/// to 128 cities, then deterministic block sampling — four blocks up to
/// 442 cities (pcb442), two beyond. Full simulation is exact but its host
/// cost grows with the grid, while a launch's blocks are homogeneous
/// enough for a sample (`tests/sampling_consistency.rs` bounds the error).
/// The one size policy of the `Auto` backend's probes and of the paper
/// reproduction's automatic mode.
pub fn sim_mode_for_size(n: usize) -> SimMode {
    if n <= 128 {
        SimMode::Full
    } else if n <= 442 {
        SimMode::SampleBlocks(4)
    } else {
        SimMode::SampleBlocks(2)
    }
}

/// Index of the first minimum — the canonical "iteration-best ant"
/// choice both GPU colonies use (first strict minimum, matching the
/// pre-local-search best-tracking order).
pub(crate) fn first_min(lens: &[u64]) -> usize {
    let mut k = 0;
    for (i, &l) in lens.iter().enumerate() {
        if l < lens[k] {
            k = i;
        }
    }
    k
}

/// Cap on threads a colony may add on top of its profile's
/// `exec_threads` budget when the engine donates idle workers (see
/// `EngineConfig::donate_idle_threads`). Simulator results are
/// bit-identical at any host thread count, so donation only trades
/// wall-clock; the cap bounds oversubscription.
pub const MAX_DONATED_THREADS: usize = 8;

/// The host thread budget both GPU colonies launch with: the device
/// profile's exec threads plus, while other engine workers are parked
/// idle, up to [`MAX_DONATED_THREADS`] donated ones. Simulator results
/// are bit-identical at any thread count, so this only trades host
/// cores for wall clock.
pub(crate) struct ExecThreads {
    pub budget: usize,
    pub donor: Option<Arc<AtomicUsize>>,
}

impl Default for ExecThreads {
    fn default() -> Self {
        ExecThreads { budget: 1, donor: None }
    }
}

impl ExecThreads {
    /// Host threads for the next launch.
    pub fn current(&self) -> usize {
        let donated =
            self.donor.as_ref().map_or(0, |d| d.load(Ordering::Relaxed).min(MAX_DONATED_THREADS));
        self.budget + donated
    }
}

/// The per-iteration local search both GPU colonies run between
/// construction and the pheromone update: the strategy, its scope, the
/// device scratch of its kernel family, and the improvement it has
/// contributed.
pub(crate) struct GpuLocalSearch {
    strategy: LocalSearch,
    scope: LsScope,
    /// The `two_opt` family's scratch (present iff the strategy is
    /// `TwoOptNn`; serves both scopes via windowed launches).
    two_opt: Option<TwoOptDev>,
    /// The `or_opt` family's scratch (present iff the strategy is
    /// `OrOpt`; serves both scopes via windowed launches).
    or_opt: Option<OrOptDev>,
    /// Host copy of the candidate lists (host-pass fallback).
    nn_host: NearestNeighborLists,
    scratch: LsScratch,
    pub improvement: u64,
}

impl GpuLocalSearch {
    /// No local search yet, with the host candidate lists for fallbacks.
    pub fn new(nn_host: &NearestNeighborLists) -> Self {
        GpuLocalSearch {
            strategy: LocalSearch::None,
            scope: LsScope::IterationBest,
            two_opt: None,
            or_opt: None,
            nn_host: nn_host.clone(),
            scratch: LsScratch::new(),
            improvement: 0,
        }
    }

    /// Configure `ls` on the tours `scope` selects, allocating its
    /// kernel family's scratch next to the colony buffers:
    /// [`LocalSearch::TwoOptNn`] runs the windowed `two_opt` family and
    /// [`LocalSearch::OrOpt`] the windowed `or_opt` family, each one
    /// launch per phase for the whole scope. Only the
    /// host-only [`LocalSearch::TwoOpt`] stays a host pass whose improved
    /// tours are written back to device memory before the pheromone
    /// update (a `cudaMemcpy` round trip, like ACOTSP-hybrid ports do).
    pub fn configure(
        &mut self,
        gm: &mut GlobalMem,
        bufs: ColonyBuffers,
        ls: LocalSearch,
        scope: LsScope,
    ) {
        self.strategy = ls;
        self.scope = scope;
        let b = bufs;
        if ls.per_iteration() == LocalSearch::TwoOptNn && self.two_opt.is_none() {
            self.two_opt = Some(TwoOptDev::allocate(
                gm, b.n, b.nn, b.stride, b.dist, b.tours, b.lengths, b.nn_list,
            ));
        }
        if ls.per_iteration() == LocalSearch::OrOpt && self.or_opt.is_none() {
            self.or_opt = Some(OrOptDev::allocate(
                gm, b.n, b.nn, b.stride, b.dist, b.tours, b.lengths, b.nn_list,
            ));
        }
    }

    /// Improve the configured scope of this iteration's tours in place —
    /// the iteration best or every ant — keeping the device tours,
    /// padding and f32 lengths in sync with the host copies so the
    /// pheromone kernels deposit the improved tours, and accounting the
    /// improvement. Returns the modeled kernel milliseconds (0 without a
    /// per-iteration strategy, and for host passes).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        dev: &DeviceSpec,
        gm: &mut GlobalMem,
        bufs: ColonyBuffers,
        inst: &TspInstance,
        threads: usize,
        tours: &mut [Tour],
        lens: &mut [u64],
    ) -> Result<f64, SimtError> {
        if !self.strategy.runs_per_iteration() {
            return Ok(0.0);
        }
        let ants: Vec<usize> = match self.scope {
            LsScope::IterationBest => vec![first_min(lens)],
            LsScope::AllAnts => (0..tours.len()).collect(),
        };
        let before: u64 = ants.iter().map(|&a| lens[a]).sum();
        let ms = self.improve_ants(dev, gm, bufs, inst, threads, &ants, tours, lens)?;
        let after: u64 = ants.iter().map(|&a| lens[a]).sum();
        self.improvement += before - after;
        Ok(ms)
    }

    /// Improve a contiguous window of ant tours — `ants` is either
    /// `[iteration_best]` or `0..m`. Device strategies (`TwoOptNn`,
    /// `OrOpt`) batch the whole window into `O(rounds)` launches of
    /// their windowed kernel family. The host-only `TwoOpt` falls back
    /// to per-ant host passes + [`ColonyBuffers::write_tour`].
    #[allow(clippy::too_many_arguments)]
    fn improve_ants(
        &mut self,
        dev: &DeviceSpec,
        gm: &mut GlobalMem,
        bufs: ColonyBuffers,
        inst: &TspInstance,
        threads: usize,
        ants: &[usize],
        tours: &mut [Tour],
        lens: &mut [u64],
    ) -> Result<f64, SimtError> {
        let (first, count) = (ants[0] as u32, ants.len() as u32);
        let ms = match self.strategy.per_iteration() {
            LocalSearch::TwoOptNn => {
                let scratch = self.two_opt.expect("allocated by configure");
                aco_localsearch::run_two_opt_window(dev, gm, scratch, first, count, threads)?.ms
            }
            LocalSearch::OrOpt => {
                let scratch = self.or_opt.expect("allocated by configure");
                aco_localsearch::run_or_opt(dev, gm, scratch, first, count, threads)?.ms
            }
            host => {
                for &ant in ants {
                    let gain = host.improve(
                        &mut tours[ant],
                        inst.matrix(),
                        &self.nn_host,
                        &mut self.scratch,
                    );
                    lens[ant] -= gain;
                    bufs.write_tour(gm, ant, &tours[ant], lens[ant]);
                }
                return Ok(0.0);
            }
        };
        // Re-read every improved row and settle the exact host length
        // plus the f32 device length (the kernels' gain subtraction is
        // f32-exact at TSPLIB scales; this mirrors the host-exact best
        // tracking).
        let (n, stride) = (bufs.n as usize, bufs.stride as usize);
        for &ant in ants {
            let row = &gm.u32(bufs.tours)[ant * stride..ant * stride + n];
            tours[ant] = Tour::new(row.to_vec()).expect("local search preserves the permutation");
            lens[ant] = tours[ant].length(inst.matrix());
            gm.f32_mut(bufs.lengths)[ant] = lens[ant] as f32;
        }
        Ok(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_policy_samples_past_128_and_442_cities() {
        assert_eq!(sim_mode_for_size(128), SimMode::Full);
        assert_eq!(sim_mode_for_size(129), SimMode::SampleBlocks(4));
        assert_eq!(sim_mode_for_size(442), SimMode::SampleBlocks(4));
        assert_eq!(sim_mode_for_size(443), SimMode::SampleBlocks(2));
    }
}

//! The full GPU Ant System — both stages on the (simulated) device.
//!
//! This is the paper's headline: "In this paper, we fully develop the ACO
//! algorithm for the TSP on GPUs, so that both main phases are
//! parallelised." One [`GpuAntSystem`] owns the device memory, runs
//! `choice → construct → update` per iteration with any combination of
//! [`TourStrategy`] and [`PheromoneStrategy`], tracks the best tour, and
//! reports per-stage modeled times.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::prelude::*;
use aco_simt::SimtError;
use aco_tsp::{NearestNeighborLists, Tour, TspInstance};

use super::buffers::ColonyBuffers;
use super::pheromone::{run_pheromone_threads, PheromoneStrategy};
use super::tour::{run_tour_threads, TourRun, TourStrategy};
use super::{ExecThreads, GpuLocalSearch};
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};
use crate::params::AcoParams;

/// Per-iteration report of the GPU colony.
#[derive(Debug, Clone)]
pub struct GpuIterationReport {
    /// Modeled milliseconds of tour construction (incl. the Choice kernel).
    pub tour_ms: f64,
    /// Modeled milliseconds of the pheromone update.
    pub pheromone_ms: f64,
    /// Modeled milliseconds of the local-search kernel family (0 without
    /// a configured [`LocalSearch`], and for the host-fallback passes,
    /// which are host work like the exact best tracking).
    pub ls_ms: f64,
    /// Best (exact, host-recomputed) tour length this iteration.
    pub iter_best: u64,
    /// Best length so far.
    pub best_so_far: u64,
    /// Construction-stage detail.
    pub tour_run: TourRun,
}

/// Ant System with both stages on the simulated GPU.
pub struct GpuAntSystem<'a> {
    inst: &'a TspInstance,
    params: AcoParams,
    dev: DeviceSpec,
    gm: GlobalMem,
    bufs: ColonyBuffers,
    tour_strategy: TourStrategy,
    pheromone_strategy: PheromoneStrategy,
    iteration: u64,
    best: Option<(Tour, u64)>,
    threads: ExecThreads,
    ls: GpuLocalSearch,
}

impl<'a> GpuAntSystem<'a> {
    /// Allocate a colony on `dev`.
    pub fn new(
        inst: &'a TspInstance,
        params: AcoParams,
        dev: DeviceSpec,
        tour_strategy: TourStrategy,
        pheromone_strategy: PheromoneStrategy,
    ) -> Self {
        let nn_lists = NearestNeighborLists::build(inst.matrix(), params.nn_size)
            .expect("instance has >= 2 cities");
        let c_nn = aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        Self::with_artifacts(inst, params, dev, tour_strategy, pheromone_strategy, &nn_lists, c_nn)
    }

    /// Allocate a colony on `dev` reusing precomputed host artifacts
    /// (shared nearest-neighbour lists and greedy-tour length).
    pub fn with_artifacts(
        inst: &'a TspInstance,
        params: AcoParams,
        dev: DeviceSpec,
        tour_strategy: TourStrategy,
        pheromone_strategy: PheromoneStrategy,
        nn_lists: &aco_tsp::NearestNeighborLists,
        c_nn: u64,
    ) -> Self {
        let mut gm = GlobalMem::new();
        let bufs = ColonyBuffers::allocate_with_artifacts(&mut gm, inst, &params, nn_lists, c_nn);
        GpuAntSystem {
            inst,
            params,
            dev,
            gm,
            bufs,
            tour_strategy,
            pheromone_strategy,
            iteration: 0,
            best: None,
            threads: ExecThreads::default(),
            ls: GpuLocalSearch::new(nn_lists),
        }
    }

    /// Configure the per-iteration local search. [`LocalSearch::TwoOptNn`]
    /// and [`LocalSearch::OrOpt`] run *on the device* as kernel families
    /// whose scratch is allocated here, next to the colony buffers; only
    /// the host-only [`LocalSearch::TwoOpt`] runs as a host pass with a
    /// device write-back.
    pub fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        self.ls.configure(&mut self.gm, self.bufs, ls, scope);
    }

    /// Total tour-length reduction attributable to local search so far.
    pub fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    /// Execute the simulator's blocks across up to `threads` host threads.
    /// Functional results, counters and modeled times are bit-identical
    /// for every value (see [`aco_simt::launch_threads`]); this only
    /// trades host wall-clock for cores.
    pub fn set_exec_threads(&mut self, threads: usize) {
        self.threads.budget = threads.max(1);
    }

    /// Attach the engine's idle-worker donation counter: each launch adds
    /// `min(counter, MAX_DONATED_THREADS)` host threads on top of the
    /// profile budget while other engine workers are parked idle. Purely
    /// a wall-clock lever — results stay bit-identical at any thread
    /// count, so reports and placements are donation-invariant.
    pub fn set_thread_donor(&mut self, donor: Arc<AtomicUsize>) {
        self.threads.donor = Some(donor);
    }

    /// The device this colony runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.dev
    }

    /// Device buffers (for inspection).
    pub fn buffers(&self) -> ColonyBuffers {
        self.bufs
    }

    /// Best tour so far (exact integer length).
    pub fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    /// Run one full iteration at the given simulation fidelity.
    ///
    /// `SimMode::Full` keeps functional output exact (needed for quality
    /// studies); sampled modes are for timing tables on large instances.
    pub fn iterate(&mut self, mode: SimMode) -> Result<GpuIterationReport, SimtError> {
        self.iterate_dynamics(mode, None).map(|(rep, _)| rep)
    }

    /// [`iterate`](Self::iterate), additionally measuring search dynamics
    /// when a config is supplied (and the mode is [`SimMode::Full`] — the
    /// host-exact lengths the statistics need only exist there). The trail
    /// is read back after the pheromone kernel, so entropy/λ-branching see
    /// the iteration-boundary state; the O(n²) scans run only when
    /// `dynamics` is `Some`.
    pub fn iterate_dynamics(
        &mut self,
        mode: SimMode,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> Result<(GpuIterationReport, Option<aco_obs::RawDynamics>), SimtError> {
        let threads = self.threads.current();
        let tour_run = run_tour_threads(
            &self.dev,
            &mut self.gm,
            self.bufs,
            self.tour_strategy,
            self.params.alpha,
            self.params.beta,
            self.params.seed,
            self.iteration,
            mode,
            threads,
        )?;

        // Host-exact best tracking (the device carries f32 lengths; the
        // host recomputes the exact integer length, like `cudaMemcpy` +
        // a validation pass would), with the configured local search
        // applied *before* the pheromone update so improved tours steer
        // the deposit. Sampled modes skip both (partial functional
        // output).
        let mut iter_best = u64::MAX;
        let mut ls_ms = 0.0;
        let mut dyn_lens: Option<Vec<u64>> = None;
        if matches!(mode, SimMode::Full) {
            let n = self.bufs.n as usize;
            let mut tours: Vec<Tour> = self
                .bufs
                .read_tours(&self.gm)
                .into_iter()
                .map(|t| Tour::new(t[..n].to_vec()).expect("device tours are permutations"))
                .collect();
            let mut lens: Vec<u64> = tours.iter().map(|t| t.length(self.inst.matrix())).collect();
            let threads = self.threads.current();
            ls_ms = self.ls.run(
                &self.dev,
                &mut self.gm,
                self.bufs,
                self.inst,
                threads,
                &mut tours,
                &mut lens,
            )?;
            let k = super::first_min(&lens);
            iter_best = lens[k];
            if self.best.as_ref().is_none_or(|&(_, b)| iter_best < b) {
                self.best = Some((tours[k].clone(), iter_best));
            }
            if dynamics.is_some() {
                dyn_lens = Some(lens);
            }
        }

        let threads = self.threads.current();
        let ph = run_pheromone_threads(
            &self.dev,
            &mut self.gm,
            self.bufs,
            self.pheromone_strategy,
            self.params.rho,
            mode,
            threads,
        )?;

        self.iteration += 1;
        let raw = match (dynamics, dyn_lens) {
            (Some(cfg), Some(lens)) => {
                let n = self.bufs.n as usize;
                let tau = &self.gm.f32(self.bufs.tau)[..n * n];
                Some(aco_obs::dynamics::compute_raw(cfg, &lens, tau, n))
            }
            _ => None,
        };
        let rep = GpuIterationReport {
            tour_ms: tour_run.total_ms(),
            pheromone_ms: ph.time.total_ms,
            ls_ms,
            iter_best,
            best_so_far: self.best.as_ref().map_or(u64::MAX, |&(_, l)| l),
            tour_run,
        };
        Ok((rep, raw))
    }

    /// Run `iters` full-fidelity iterations; returns the best length.
    pub fn run(&mut self, iters: usize) -> Result<u64, SimtError> {
        let mut best = u64::MAX;
        for _ in 0..iters {
            best = self.iterate(SimMode::Full)?.best_so_far;
        }
        Ok(best)
    }
}

/// The colony under [`crate::lifecycle::drive`]: full-fidelity
/// iterations, so cancellation and deadlines are checked between
/// simulated kernel launches, priced by the simulator's modeled times.
impl Colony for GpuAntSystem<'_> {
    fn step(&mut self, _k: u64, ctx: &SolveCtx) -> Result<Step, SimtError> {
        let (rep, raw_dynamics) = self.iterate_dynamics(SimMode::Full, ctx.dynamics())?;
        Ok(Step {
            iter_best: rep.iter_best,
            best_so_far: rep.best_so_far,
            raw_dynamics,
            phase_ms: PhaseMs {
                construction: rep.tour_ms,
                local_search: rep.ls_ms,
                pheromone: rep.pheromone_ms,
            },
        })
    }

    fn best(&self) -> Option<(&Tour, u64)> {
        GpuAntSystem::best(self)
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        GpuAntSystem::set_local_search(self, ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    fn set_exec_threads(&mut self, threads: usize) {
        GpuAntSystem::set_exec_threads(self, threads);
    }

    fn set_thread_donor(&mut self, donor: Arc<AtomicUsize>) {
        GpuAntSystem::set_thread_donor(self, donor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_tsp::generator::uniform_random;

    #[test]
    fn full_gpu_iterations_track_best_and_converge() {
        let inst = uniform_random("sys", 40, 800.0, 9);
        let mut sys = GpuAntSystem::new(
            &inst,
            AcoParams::default().nn(10).seed(5),
            DeviceSpec::tesla_m2050(),
            TourStrategy::DataParallelTex,
            PheromoneStrategy::AtomicShared,
        );
        let first = sys.iterate(SimMode::Full).unwrap();
        assert!(first.iter_best < u64::MAX);
        assert!(first.tour_ms > 0.0 && first.pheromone_ms > 0.0);
        let best = sys.run(8).unwrap();
        assert!(best <= first.iter_best);
        let (tour, len) = sys.best().expect("ran");
        assert!(tour.is_valid());
        assert_eq!(len, tour.length(inst.matrix()));
    }

    #[test]
    fn strategies_agree_on_search_behaviour() {
        // Different kernel strategies are different *schedules*, not
        // different algorithms (modulo the data-parallel selection rule):
        // all must reach a reasonable tour on a small instance.
        let inst = uniform_random("sys2", 36, 700.0, 11);
        let nn_len = aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        for (ts, ps) in [
            (TourStrategy::DeviceRng, PheromoneStrategy::Atomic),
            (TourStrategy::NNList, PheromoneStrategy::Scatter),
            (TourStrategy::DataParallel, PheromoneStrategy::Reduction),
        ] {
            let mut sys = GpuAntSystem::new(
                &inst,
                AcoParams::default().nn(10).seed(21),
                DeviceSpec::tesla_c1060(),
                ts,
                ps,
            );
            let best = sys.run(10).unwrap();
            assert!(
                (best as f64) < 1.6 * nn_len as f64,
                "{ts:?}/{ps:?} best {best} vs NN {nn_len}"
            );
        }
    }

    #[test]
    fn sampled_iterations_report_times_without_best() {
        let inst = uniform_random("sys3", 64, 900.0, 13);
        let mut sys = GpuAntSystem::new(
            &inst,
            AcoParams::default().nn(10),
            DeviceSpec::tesla_c1060(),
            TourStrategy::NNList,
            PheromoneStrategy::AtomicShared,
        );
        let rep = sys.iterate(SimMode::SampleBlocks(1)).unwrap();
        assert!(rep.tour_ms > 0.0);
        assert_eq!(rep.iter_best, u64::MAX); // functional output partial
    }
}

//! MAX-MIN Ant System (MMAS) — the second classic variant beyond AS,
//! mentioned in the paper's related work (Jiening et al. implemented MMAS
//! on a GPU) and covered here as an extension.
//!
//! Differences from the Ant System (Stützle & Hoos, 2000):
//!
//! * only the iteration-best (or periodically the best-so-far) ant
//!   deposits,
//! * pheromone is clamped to `[tau_min, tau_max]` with
//!   `tau_max = 1/(rho * C_best)` and `tau_min = tau_max / (2n)`,
//! * trails start at `tau_max` (optimistic initialisation),
//! * stagnation triggers a trail re-initialisation.

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::{nearest_neighbor_tour, NearestNeighborLists, Tour, TspInstance};

use super::ant_system::TourPolicy;
use super::construct::{TourScratch, Trails};
use super::counter::{CpuModel, OpCounter};
use super::local_search::HostLocalSearch;
use super::pricing::cpu_phase_ms;
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};
use crate::params::AcoParams;

/// MMAS-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmasParams {
    /// Every `gb_every` iterations the best-so-far ant deposits instead of
    /// the iteration-best one (0 = never).
    pub gb_every: usize,
    /// Re-initialise trails after this many iterations without improvement
    /// (0 = never).
    pub restart_after: usize,
}

impl Default for MmasParams {
    fn default() -> Self {
        MmasParams { gb_every: 25, restart_after: 100 }
    }
}

/// The MAX-MIN Ant System solver.
pub struct MaxMinAntSystem<'a> {
    inst: &'a TspInstance,
    params: AcoParams,
    mmas: MmasParams,
    n: usize,
    m: usize,
    trails: Trails,
    nn: std::sync::Arc<NearestNeighborLists>,
    rng: PmRng,
    tau_max: f64,
    tau_min: f64,
    best: Option<(Tour, u64)>,
    /// Best length found in the most recent iteration (`u64::MAX` before
    /// the first) — the iteration-best stream for lifecycle observers.
    last_iter_best: u64,
    iterations: usize,
    since_improvement: usize,
    restarts: u64,
    scratch: TourScratch,
    /// Per-iteration local search (ACOTSP-style hybridisation).
    ls: HostLocalSearch,
}

impl<'a> MaxMinAntSystem<'a> {
    /// Set up an MMAS colony.
    pub fn new(inst: &'a TspInstance, params: AcoParams, mmas: MmasParams) -> Self {
        let nn = NearestNeighborLists::build(inst.matrix(), params.nn_size)
            .expect("instance has >= 2 cities");
        let c_nn = nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        Self::with_artifacts(inst, params, mmas, std::sync::Arc::new(nn), c_nn)
    }

    /// Set up an MMAS colony from precomputed artifacts (shared NN lists
    /// and greedy-tour length); see `AntSystem::with_artifacts`.
    pub fn with_artifacts(
        inst: &'a TspInstance,
        params: AcoParams,
        mmas: MmasParams,
        nn: std::sync::Arc<NearestNeighborLists>,
        c_nn: u64,
    ) -> Self {
        let n = inst.n();
        let m = params.ants_for(n);
        let rho = params.rho as f64;
        let tau_max = 1.0 / (rho * c_nn as f64);
        let tau_min = tau_max / (2.0 * n as f64);
        let mut trails = Trails::new(inst, params.alpha as f64, params.beta as f64, tau_max);
        trails.refresh(TourPolicy::NearestNeighborList, &nn, &mut OpCounter::default());
        MaxMinAntSystem {
            inst,
            n,
            m,
            trails,
            scratch: TourScratch::default(),
            nn,
            rng: PmRng::new((params.seed % 0x7FFF_FFFF) as u32),
            tau_max,
            tau_min,
            best: None,
            last_iter_best: u64::MAX,
            iterations: 0,
            since_improvement: 0,
            restarts: 0,
            ls: HostLocalSearch::default(),
            params,
            mmas,
        }
    }

    /// Current `[tau_min, tau_max]` bounds.
    pub fn bounds(&self) -> (f64, f64) {
        (self.tau_min, self.tau_max)
    }

    /// Best solution found so far.
    pub fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    /// Pheromone matrix.
    pub fn tau(&self) -> &[f64] {
        &self.trails.tau
    }

    /// Configure the per-iteration local search (see
    /// [`crate::AntSystem::set_local_search`]). The improved
    /// iteration-best tour is what deposits — and what tightens the
    /// `[tau_min, tau_max]` bounds.
    pub fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        (self.ls.strategy, self.ls.scope) = (ls, scope);
    }

    /// Total tour-length reduction attributable to local search so far.
    pub fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    /// One MMAS iteration; returns the best-so-far length.
    pub fn iterate(&mut self) -> u64 {
        self.iterate_dynamics(None).0
    }

    /// [`iterate`](Self::iterate), additionally measuring search dynamics
    /// when a config is supplied. Ants are constructed one at a time, so
    /// tour-length moments accumulate in-stream; the O(n²) trail scans run
    /// only when `dynamics` is `Some`.
    pub fn iterate_dynamics(
        &mut self,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> (u64, Option<aco_obs::RawDynamics>) {
        self.iterations += 1;
        let MaxMinAntSystem { inst, m, trails, nn, scratch, rng, ls, .. } = self;
        let choice = trails.view(TourPolicy::NearestNeighborList, nn);
        let (iter_best, moments) = ls.improve_stream(*m, inst.matrix(), nn, || {
            scratch.construct(inst, &choice, rng, &mut OpCounter::default())
        });
        self.last_iter_best = iter_best.1;

        let improved = self.best.as_ref().is_none_or(|&(_, b)| iter_best.1 < b);
        if improved {
            // Tighter bounds as the best tour improves.
            self.best = Some(iter_best.clone());
            let rho = self.params.rho as f64;
            self.tau_max = 1.0 / (rho * iter_best.1 as f64);
            self.tau_min = self.tau_max / (2.0 * self.n as f64);
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }

        // Evaporation, then a deposit by the iteration-best ant, or by the
        // best-so-far one on the schedule.
        let mut c = OpCounter::default();
        self.trails.evaporate(self.params.rho as f64, &mut c);
        let use_gb = self.mmas.gb_every > 0 && self.iterations % self.mmas.gb_every == 0;
        let (tour, len) = if use_gb { self.best.as_ref().expect("set above") } else { &iter_best };
        self.trails.deposit(tour, 1.0 / *len as f64, &mut c);
        for t in self.trails.tau.iter_mut() {
            *t = t.clamp(self.tau_min, self.tau_max);
        }

        // Stagnation restart.
        if self.mmas.restart_after > 0 && self.since_improvement >= self.mmas.restart_after {
            self.trails.tau.fill(self.tau_max);
            self.since_improvement = 0;
            self.restarts += 1;
        }

        self.trails.refresh(TourPolicy::NearestNeighborList, &self.nn, &mut c);
        // Dynamics snapshot the trail state at the iteration boundary —
        // after deposit, clamp, and any restart.
        let raw = moments.dynamics(dynamics, &self.trails.tau, self.n);
        (self.best.as_ref().map(|&(_, l)| l).expect("set above"), raw)
    }

    /// How many stagnation restarts (`restart_after` exceeded, trails
    /// re-initialised to `tau_max`) have fired so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Run `iters` iterations; returns the best length.
    pub fn run(&mut self, iters: usize) -> u64 {
        let mut best = u64::MAX;
        for _ in 0..iters {
            best = self.iterate();
        }
        best
    }

    /// Best length found in the most recent [`MaxMinAntSystem::iterate`]
    /// (`u64::MAX` before the first iteration).
    pub fn last_iter_best(&self) -> u64 {
        self.last_iter_best
    }
}

/// The colony under [`crate::lifecycle::drive`]. Its clock is analytic:
/// every iteration is priced like the candidate-list Ant System of the
/// same size ([`cpu_phase_ms`]) plus the configured local search.
impl Colony for MaxMinAntSystem<'_> {
    fn step(&mut self, _k: u64, ctx: &SolveCtx) -> Result<Step, SimtError> {
        let (best_so_far, raw_dynamics) = self.iterate_dynamics(ctx.dynamics());
        let model = CpuModel::default();
        let (choice, tour, update) = cpu_phase_ms(self.n, self.m, self.params.nn_size, &model);
        Ok(Step {
            iter_best: self.last_iter_best,
            best_so_far,
            raw_dynamics,
            phase_ms: PhaseMs {
                construction: choice + tour,
                local_search: self.ls.iter_ms(self.n, self.nn.depth(), self.m, &model),
                pheromone: update,
            },
        })
    }

    fn best(&self) -> Option<(&Tour, u64)> {
        MaxMinAntSystem::best(self)
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        MaxMinAntSystem::set_local_search(self, ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    fn restarts(&self) -> u64 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_tsp::generator::uniform_random;

    #[test]
    fn bounds_hold_after_every_iteration() {
        let inst = uniform_random("mmas", 40, 800.0, 31);
        let mut mmas =
            MaxMinAntSystem::new(&inst, AcoParams::default().nn(15).seed(4), MmasParams::default());
        for _ in 0..10 {
            mmas.iterate();
            let (lo, hi) = mmas.bounds();
            assert!(lo > 0.0 && hi > lo);
            for &t in mmas.tau() {
                assert!(
                    t >= lo * (1.0 - 1e-12) && t <= hi * (1.0 + 1e-12),
                    "tau {t} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn improves_and_stays_valid() {
        let inst = uniform_random("mmas", 50, 1000.0, 32);
        let mut mmas = MaxMinAntSystem::new(
            &inst,
            AcoParams::default().nn(15).seed(8).ants(25),
            MmasParams::default(),
        );
        let first = mmas.iterate();
        let last = mmas.run(25);
        assert!(last <= first);
        let (tour, len) = mmas.best().expect("ran");
        assert!(tour.is_valid());
        assert_eq!(len, tour.length(inst.matrix()));
    }

    #[test]
    fn restart_resets_trails() {
        let inst = uniform_random("mmas", 30, 500.0, 33);
        let mut mmas = MaxMinAntSystem::new(
            &inst,
            AcoParams::default().nn(10).seed(2).ants(5),
            MmasParams { gb_every: 0, restart_after: 1 },
        );
        mmas.run(5);
        // With restart_after = 1, trails were re-initialised recently; all
        // values close to tau_max or clamped shortly after.
        let (_, hi) = mmas.bounds();
        let above_half = mmas.tau().iter().filter(|&&t| t > hi * 0.4).count();
        assert!(above_half > 0, "restart should lift trails toward tau_max");
        assert!(mmas.restarts() >= 1, "every fired restart is counted");
    }
}

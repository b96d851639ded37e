//! Ant Colony System (ACS) — the variant the paper's conclusions name as
//! the next implementation target ("We will also implement other ACO
//! algorithms, such as the Ant Colony System").
//!
//! Differences from the Ant System (Dorigo & Gambardella, 1997):
//!
//! * *pseudo-random proportional rule*: with probability `q0` an ant takes
//!   the best candidate (exploitation), otherwise the usual roulette,
//! * *local pheromone update*: every crossed edge decays toward `tau0`
//!   immediately (`tau = (1-xi) tau + xi tau0`),
//! * *global update by the best-so-far ant only*, with
//!   `tau = (1-rho) tau + rho/C_bs` on its edges,
//! * `tau0 = 1 / (n * C_nn)`.

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::{nearest_neighbor_tour, NearestNeighborLists, Tour, TspInstance};

use super::construct::{best_unvisited, first_max, gather, roulette, TourScratch, Trails};
use super::counter::{CpuModel, OpCounter};
use super::local_search::HostLocalSearch;
use super::pricing::cpu_phase_ms;
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};
use crate::params::AcoParams;

/// ACS-specific parameters on top of [`AcoParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcsParams {
    /// Exploitation probability (book default 0.9).
    pub q0: f64,
    /// Local evaporation (book default 0.1).
    pub xi: f64,
}

impl Default for AcsParams {
    fn default() -> Self {
        AcsParams { q0: 0.9, xi: 0.1 }
    }
}

/// The Ant Colony System solver.
pub struct AntColonySystem<'a> {
    inst: &'a TspInstance,
    params: AcoParams,
    acs: AcsParams,
    n: usize,
    m: usize,
    /// `tau` and `eta^beta`; ACS reads `tau · eta^beta` on every candidate
    /// inspection, since its local update moves `tau` at every step.
    trails: Trails,
    nn: std::sync::Arc<NearestNeighborLists>,
    rng: PmRng,
    tau0: f64,
    best: Option<(Tour, u64)>,
    /// Best length found in the most recent iteration (`u64::MAX` before
    /// the first) — the iteration-best stream for lifecycle observers.
    last_iter_best: u64,
    scratch: TourScratch,
    /// Per-iteration local search (ACOTSP-style hybridisation).
    ls: HostLocalSearch,
}

impl<'a> AntColonySystem<'a> {
    /// Set up an ACS colony. ACS traditionally uses few ants (book: 10).
    pub fn new(inst: &'a TspInstance, params: AcoParams, acs: AcsParams) -> Self {
        let nn = NearestNeighborLists::build(inst.matrix(), params.nn_size)
            .expect("instance has >= 2 cities");
        let c_nn = nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        Self::with_artifacts(inst, params, acs, std::sync::Arc::new(nn), c_nn)
    }

    /// Set up an ACS colony from precomputed artifacts (shared NN lists
    /// and greedy-tour length); see `AntSystem::with_artifacts`.
    pub fn with_artifacts(
        inst: &'a TspInstance,
        params: AcoParams,
        acs: AcsParams,
        nn: std::sync::Arc<NearestNeighborLists>,
        c_nn: u64,
    ) -> Self {
        let n = inst.n();
        let m = params.num_ants.unwrap_or(10);
        let tau0 = 1.0 / (n as f64 * c_nn as f64);
        AntColonySystem {
            inst,
            n,
            m,
            trails: Trails::new(inst, 1.0, params.beta as f64, tau0),
            scratch: TourScratch::default(),
            nn,
            rng: PmRng::new((params.seed % 0x7FFF_FFFF) as u32),
            tau0,
            best: None,
            last_iter_best: u64::MAX,
            ls: HostLocalSearch::default(),
            params,
            acs,
        }
    }

    /// Configure the per-iteration local search (see
    /// [`crate::AntSystem::set_local_search`]). Under
    /// [`LsScope::AllAnts`] each ant's tour is improved right after its
    /// construction; the local pheromone trail it laid while building
    /// stays as built (only the result steers best tracking and the
    /// global update).
    pub fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        (self.ls.strategy, self.ls.scope) = (ls, scope);
    }

    /// Total tour-length reduction attributable to local search so far.
    pub fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    /// Best solution found so far.
    pub fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    /// `tau0 = 1/(n * C_nn)`.
    pub fn tau0(&self) -> f64 {
        self.tau0
    }

    /// Pheromone matrix.
    pub fn tau(&self) -> &[f64] {
        &self.trails.tau
    }

    /// Best length found in the most recent [`AntColonySystem::iterate`]
    /// (`u64::MAX` before the first iteration).
    pub fn last_iter_best(&self) -> u64 {
        self.last_iter_best
    }

    /// One ACS iteration; returns the best-so-far length.
    pub fn iterate(&mut self) -> u64 {
        self.iterate_dynamics(None).0
    }

    /// [`iterate`](Self::iterate), additionally measuring search dynamics
    /// when a config is supplied. ACS constructs ants one at a time, so
    /// tour-length moments are accumulated in-stream; the O(n²) trail
    /// scans run only when `dynamics` is `Some`.
    pub fn iterate_dynamics(
        &mut self,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> (u64, Option<aco_obs::RawDynamics>) {
        let AntColonySystem { inst, acs, n, m, trails, nn, rng, tau0, scratch, ls, .. } = self;
        let (n, AcsParams { q0, xi }) = (*n, *acs);
        let ((best_tour, best_len), moments) = ls.improve_stream(*m, inst.matrix(), nn, || {
            scratch.walk(inst, rng, &mut OpCounter::default(), |cur, visited, prob, rng, c| {
                let value = |j| trails.value(cur, j);
                let next = step(value, nn.neighbors(cur), visited, prob, q0, rng, c);
                // Local pheromone update on the crossed edge (both directions).
                for (a, b) in [(cur, next), (next, cur)] {
                    let t = &mut trails.tau[a * n + b];
                    *t = (1.0 - xi) * *t + xi * *tau0;
                }
                next
            })
        });
        self.last_iter_best = best_len;
        if self.best.as_ref().is_none_or(|&(_, b)| best_len < b) {
            self.best = Some((best_tour, best_len));
        }
        // Global update: best-so-far ant only.
        let (tour, len) = self.best.as_ref().expect("m >= 1 ants ran");
        let rho = self.params.rho as f64;
        let dep = rho / *len as f64;
        for k in 0..n {
            let i = tour.order()[k] as usize;
            let j = tour.order()[(k + 1) % n] as usize;
            for (a, b) in [(i, j), (j, i)] {
                let t = &mut self.trails.tau[a * n + b];
                *t = (1.0 - rho) * *t + dep;
            }
        }
        (*len, moments.dynamics(dynamics, &self.trails.tau, n))
    }

    /// Run `iters` iterations; returns the best length.
    pub fn run(&mut self, iters: usize) -> u64 {
        let mut best = u64::MAX;
        for _ in 0..iters {
            best = self.iterate();
        }
        best
    }
}

/// ACS's pseudo-random-proportional step over the candidates `cands`,
/// valued by `value` (`tau · eta^beta` from the current city, as ACS fixes
/// `alpha = 1`): with probability `q0` the best candidate (exploitation),
/// otherwise the shared roulette; the best unvisited city once every
/// candidate is visited.
fn step(
    value: impl Fn(usize) -> f64 + Copy,
    cands: &[u32],
    visited: &[bool],
    prob: &mut [f64],
    q0: f64,
    rng: &mut PmRng,
    c: &mut OpCounter,
) -> usize {
    let q = rng.next_f64();
    let sum = gather(cands.iter().map(|&j| (j as usize, value(j as usize))), visited, prob);
    if sum <= 0.0 {
        return best_unvisited(visited, value);
    }
    let prob = &prob[..cands.len()];
    let k = if q < q0 { first_max(prob.iter().copied()) } else { roulette(prob, sum, rng, c) };
    cands[k] as usize
}

/// The colony under [`crate::lifecycle::drive`]. Its clock is analytic:
/// every iteration is priced like the candidate-list Ant System of the
/// same size ([`cpu_phase_ms`]) plus the configured local search.
impl Colony for AntColonySystem<'_> {
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
        AntColonySystem::best(self)
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        AntColonySystem::set_local_search(self, ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_tsp::generator::uniform_random;

    #[test]
    fn acs_finds_valid_improving_tours() {
        let inst = uniform_random("acs", 50, 1000.0, 21);
        let mut acs =
            AntColonySystem::new(&inst, AcoParams::default().nn(15).seed(5), AcsParams::default());
        let first = acs.iterate();
        let last = acs.run(20);
        assert!(last <= first);
        let (tour, len) = acs.best().expect("ran");
        assert!(tour.is_valid());
        assert_eq!(len, tour.length(inst.matrix()));
    }

    #[test]
    fn local_update_pulls_towards_tau0() {
        let inst = uniform_random("acs", 30, 500.0, 22);
        let mut acs =
            AntColonySystem::new(&inst, AcoParams::default().nn(10).seed(1), AcsParams::default());
        acs.run(5);
        // Pheromone never drops below tau0 (local rule is a convex
        // combination with tau0; global adds on top).
        let lo = acs.tau0() * (1.0 - 1e-9);
        assert!(acs.tau().iter().all(|&t| t >= lo), "tau fell below tau0");
    }

    #[test]
    fn exploitation_dominates_with_q0_one() {
        let inst = uniform_random("acs", 25, 500.0, 23);
        // q0 = 1: fully greedy construction; two colonies with different
        // seeds still pick identical tours after the first iteration's
        // pheromone is laid (start cities differ, so compare validity only).
        let mut acs = AntColonySystem::new(
            &inst,
            AcoParams::default().nn(10).seed(3).ants(4),
            AcsParams { q0: 1.0, xi: 0.1 },
        );
        let len = acs.run(3);
        assert!(len > 0);
        assert!(acs.best().expect("ran").0.is_valid());
    }

    #[test]
    fn acs_beats_nearest_neighbor_eventually() {
        let inst = uniform_random("acs", 60, 1000.0, 24);
        let nn_len = aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        let mut acs =
            AntColonySystem::new(&inst, AcoParams::default().nn(20).seed(9), AcsParams::default());
        let best = acs.run(60);
        assert!(best <= nn_len, "ACS ({best}) should match or beat greedy NN ({nn_len})");
    }
}

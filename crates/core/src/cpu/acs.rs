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

use super::counter::CpuModel;
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
    tau: Vec<f64>,
    /// `eta^beta`, precomputed once — ACS evaluates edge desirability on
    /// every candidate inspection, so hoisting the `powf` out of the
    /// construction loop removes the dominant transcendental traffic.
    eta_pow: Vec<f64>,
    nn: std::sync::Arc<NearestNeighborLists>,
    rng: PmRng,
    tau0: f64,
    best: Option<(Tour, u64)>,
    /// Best length found in the most recent iteration (`u64::MAX` before
    /// the first) — the iteration-best stream for lifecycle observers.
    last_iter_best: u64,
    /// Reusable per-ant visited flags (construction scratch).
    visited_scratch: Vec<bool>,
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
        let beta = params.beta as f64;
        let mut eta_pow = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let d = inst.dist(i, j);
                let eta = if d == 0 { 10.0 } else { 1.0 / d as f64 };
                eta_pow[i * n + j] = eta.powf(beta);
            }
        }
        AntColonySystem {
            inst,
            n,
            m,
            tau: vec![tau0; n * n],
            eta_pow,
            nn,
            rng: PmRng::new((params.seed % 0x7FFF_FFFF) as u32),
            tau0,
            best: None,
            last_iter_best: u64::MAX,
            visited_scratch: vec![false; n],
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
        &self.tau
    }

    #[inline]
    fn value(&self, i: usize, j: usize) -> f64 {
        // ACS uses alpha = 1 by definition: tau * eta^beta (precomputed).
        self.tau[i * self.n + j] * self.eta_pow[i * self.n + j]
    }

    fn step(&mut self, cur: usize, visited: &[bool]) -> usize {
        let cands = self.nn.neighbors(cur);
        let q: f64 = self.rng.next_f64();
        // Gather feasible candidates and their values.
        let mut vals = [0.0f64; 64];
        let mut sum = 0.0;
        let mut any = false;
        for (k, &cand) in cands.iter().enumerate() {
            let v = if visited[cand as usize] { 0.0 } else { self.value(cur, cand as usize) };
            vals[k.min(63)] = v;
            sum += v;
            any |= v > 0.0;
        }
        if !any {
            // Fallback: best over all unvisited cities.
            let mut best = usize::MAX;
            let mut best_v = f64::NEG_INFINITY;
            for (j, &seen) in visited.iter().enumerate().take(self.n) {
                if !seen {
                    let v = self.value(cur, j);
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
            }
            return best;
        }
        if q < self.acs.q0 {
            // Exploitation: argmax over candidates.
            let mut best_k = 0;
            for k in 0..cands.len() {
                if vals[k.min(63)] > vals[best_k.min(63)] {
                    best_k = k;
                }
            }
            cands[best_k] as usize
        } else {
            // Biased exploration: roulette.
            let r = self.rng.next_f64() * sum;
            let mut cum = 0.0;
            for (k, &cand) in cands.iter().enumerate() {
                cum += vals[k.min(63)];
                if cum >= r && vals[k.min(63)] > 0.0 {
                    return cand as usize;
                }
            }
            cands
                .iter()
                .enumerate()
                .rfind(|&(k, _)| vals[k.min(63)] > 0.0)
                .map(|(_, &c)| c as usize)
                .expect("sum > 0 implies a feasible candidate")
        }
    }

    fn construct_one(&mut self) -> (Tour, u64) {
        let n = self.n;
        let mut visited = std::mem::take(&mut self.visited_scratch);
        visited.clear();
        visited.resize(n, false);
        let mut order = Vec::with_capacity(n);
        let start = (self.rng.next_f64() * n as f64) as usize % n;
        visited[start] = true;
        order.push(start as u32);
        let (mut cur, mut len) = (start, 0u64);
        let xi = self.acs.xi;
        let tau0 = self.tau0;
        for _ in 1..n {
            let next = self.step(cur, &visited);
            visited[next] = true;
            order.push(next as u32);
            len += self.inst.dist(cur, next) as u64;
            // Local pheromone update on the crossed edge (both directions).
            for (a, b) in [(cur, next), (next, cur)] {
                let t = &mut self.tau[a * n + b];
                *t = (1.0 - xi) * *t + xi * tau0;
            }
            cur = next;
        }
        len += self.inst.dist(cur, start) as u64;
        self.visited_scratch = visited;
        (Tour::new_unchecked(order), len)
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
    /// tour-length moments are accumulated in-stream
    /// ([`aco_obs::dynamics::compute_raw_from_moments`]); the O(n²) trail
    /// scans run only when `dynamics` is `Some`.
    pub fn iterate_dynamics(
        &mut self,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> (u64, Option<aco_obs::RawDynamics>) {
        let all_ants = self.ls.scope == LsScope::AllAnts;
        let mut iter_best: Option<(Tour, u64)> = None;
        let (mut len_sum, mut len_sumsq) = (0.0f64, 0.0f64);
        for _ in 0..self.m {
            let (mut tour, mut len) = self.construct_one();
            if all_ants {
                self.ls.improve(&mut tour, &mut len, self.inst.matrix(), &self.nn);
            }
            len_sum += len as f64;
            len_sumsq += len as f64 * len as f64;
            if iter_best.as_ref().is_none_or(|&(_, b)| len < b) {
                iter_best = Some((tour, len));
            }
        }
        let (mut best_tour, mut best_len) = iter_best.expect("m >= 1 ants");
        if !all_ants {
            self.ls.improve(&mut best_tour, &mut best_len, self.inst.matrix(), &self.nn);
        }
        self.last_iter_best = best_len;
        if self.best.as_ref().is_none_or(|&(_, b)| best_len < b) {
            self.best = Some((best_tour, best_len));
        }
        // Global update: best-so-far ant only.
        let (tour, len) = self.best.as_ref().expect("m >= 1 ants ran").clone();
        let rho = self.params.rho as f64;
        let dep = rho / len as f64;
        let n = self.n;
        for k in 0..n {
            let i = tour.order()[k] as usize;
            let j = tour.order()[(k + 1) % n] as usize;
            for (a, b) in [(i, j), (j, i)] {
                let t = &mut self.tau[a * n + b];
                *t = (1.0 - rho) * *t + dep;
            }
        }
        let raw = dynamics.map(|cfg| {
            aco_obs::dynamics::compute_raw_from_moments(
                cfg,
                self.m as u64,
                len_sum,
                len_sumsq,
                &self.tau,
                self.n,
            )
        });
        (len, raw)
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

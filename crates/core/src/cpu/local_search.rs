//! The per-iteration local search every CPU colony runs between tour
//! construction and the pheromone update (ACOTSP-style hybridisation).

use aco_localsearch::{LocalSearch, LsScope, LsScratch};
use aco_tsp::{DistanceMatrix, NearestNeighborLists, Tour};

use super::counter::CpuModel;
use super::pricing::cpu_ls_colony_ms;

/// A CPU colony's local search: the strategy, the tours it improves, its
/// reusable scratch and the improvement it has contributed. The passes
/// use no RNG, so colony results stay a pure function of the seed.
pub(crate) struct HostLocalSearch {
    pub strategy: LocalSearch,
    pub scope: LsScope,
    scratch: LsScratch,
    pub improvement: u64,
}

impl Default for HostLocalSearch {
    fn default() -> Self {
        HostLocalSearch {
            strategy: LocalSearch::None,
            scope: LsScope::IterationBest,
            scratch: LsScratch::new(),
            improvement: 0,
        }
    }
}

impl HostLocalSearch {
    /// Improve one tour in place, keeping its length exact (a no-op
    /// without a per-iteration strategy).
    pub fn improve(
        &mut self,
        tour: &mut Tour,
        len: &mut u64,
        matrix: &DistanceMatrix,
        nn: &NearestNeighborLists,
    ) {
        let ls = self.strategy.per_iteration();
        if !ls.runs_per_iteration() {
            return;
        }
        let gain = ls.improve(tour, matrix, nn, &mut self.scratch);
        *len -= gain;
        self.improvement += gain;
    }

    /// Improve the tours of `sols` the scope selects: the first strictly
    /// shortest, or every ant.
    pub fn improve_scope(
        &mut self,
        sols: &mut [(Tour, u64)],
        matrix: &DistanceMatrix,
        nn: &NearestNeighborLists,
    ) {
        if !self.strategy.runs_per_iteration() || sols.is_empty() {
            return;
        }
        match self.scope {
            LsScope::IterationBest => {
                let mut best = 0;
                for (k, sol) in sols.iter().enumerate() {
                    if sol.1 < sols[best].1 {
                        best = k;
                    }
                }
                let (tour, len) = &mut sols[best];
                self.improve(tour, len, matrix, nn);
            }
            LsScope::AllAnts => sols.iter_mut().for_each(|(t, l)| self.improve(t, l, matrix, nn)),
        }
    }

    /// Analytic per-iteration price for a colony of `m` ants on `n`
    /// cities with candidate depth `nn`.
    pub fn iter_ms(&self, n: usize, nn: usize, m: usize, model: &CpuModel) -> f64 {
        cpu_ls_colony_ms(self.strategy, self.scope, n, nn, m, model)
    }
}

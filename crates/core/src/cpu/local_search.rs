//! The per-iteration local search every CPU colony runs between tour
//! construction and the pheromone update (ACOTSP-style hybridisation),
//! and the per-ant stream of the colonies that build their ants one at a
//! time.

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

    /// One iteration's ants built one at a time (MMAS and ACS): each of
    /// the `m` tours `construct` returns is improved under
    /// [`LsScope::AllAnts`] and counted into the length moments; the
    /// shortest (the first on ties) is the iteration best, improved under
    /// [`LsScope::IterationBest`].
    pub fn improve_stream(
        &mut self,
        m: usize,
        matrix: &DistanceMatrix,
        nn: &NearestNeighborLists,
        mut construct: impl FnMut() -> (Tour, u64),
    ) -> ((Tour, u64), LenMoments) {
        let all_ants = self.scope == LsScope::AllAnts;
        let mut best: Option<(Tour, u64)> = None;
        let mut moments = LenMoments::default();
        for _ in 0..m {
            let (mut tour, mut len) = construct();
            if all_ants {
                self.improve(&mut tour, &mut len, matrix, nn);
            }
            moments.ants += 1;
            moments.sum += len as f64;
            moments.sumsq += len as f64 * len as f64;
            if best.as_ref().is_none_or(|&(_, b)| len < b) {
                best = Some((tour, len));
            }
        }
        let (mut tour, mut len) = best.expect("m >= 1 ants");
        if !all_ants {
            self.improve(&mut tour, &mut len, matrix, nn);
        }
        ((tour, len), moments)
    }

    /// Analytic per-iteration price for a colony of `m` ants on `n`
    /// cities with candidate depth `nn`.
    pub fn iter_ms(&self, n: usize, nn: usize, m: usize, model: &CpuModel) -> f64 {
        cpu_ls_colony_ms(self.strategy, self.scope, n, nn, m, model)
    }
}

/// Tour-length moments of one iteration's ants, accumulated as they are
/// built, so a streaming colony never holds every tour.
#[derive(Default)]
pub(crate) struct LenMoments {
    ants: u64,
    sum: f64,
    sumsq: f64,
}

impl LenMoments {
    /// Search dynamics at the iteration boundary
    /// ([`aco_obs::dynamics::compute_raw_from_moments`]) when a config is
    /// supplied; the O(n²) trail scans of `tau` run only then.
    pub fn dynamics(
        &self,
        cfg: Option<&aco_obs::DynamicsConfig>,
        tau: &[f64],
        n: usize,
    ) -> Option<aco_obs::RawDynamics> {
        cfg.map(|cfg| {
            aco_obs::dynamics::compute_raw_from_moments(
                cfg, self.ants, self.sum, self.sumsq, tau, n,
            )
        })
    }
}

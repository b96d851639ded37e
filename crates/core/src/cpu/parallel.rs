//! Multi-threaded CPU colony.
//!
//! Ants are embarrassingly parallel within an iteration (the paper's
//! premise); this module fans construction out over OS threads with
//! per-ant decorrelated seeds, so the result is identical for any thread
//! count — a property the tests pin down. Pheromone update stays
//! sequential (it is O(n²) and memory-bound).

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::Tour;

use super::ant_system::{model, AntSystem, TourPolicy};
use super::construct::TourScratch;
use super::counter::{CpuModel, OpCounter};
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};

/// Construct all `m` tours with `threads` workers. Deterministic in
/// `(seed, iteration)` regardless of `threads`. Each worker reuses one
/// [`TourScratch`] across its ants, so construction allocates only the
/// tours themselves.
pub fn construct_parallel(
    aco: &AntSystem<'_>,
    policy: TourPolicy,
    iteration: u64,
    threads: usize,
) -> Vec<(Tour, u64)> {
    let m = aco.m();
    let threads = threads.clamp(1, m);
    let construct = |scratch: &mut TourScratch, ant: usize| {
        let seed = PmRng::thread_seed(aco.params().seed ^ (iteration << 20), ant as u64);
        aco.construct_one_with(scratch, &mut PmRng::new(seed), policy, &mut OpCounter::default())
    };

    if threads == 1 {
        let mut scratch = TourScratch::default();
        return (0..m).map(|a| construct(&mut scratch, a)).collect();
    }

    let mut out: Vec<Option<(Tour, u64)>> = (0..m).map(|_| None).collect();
    let chunk = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (w, slot) in out.chunks_mut(chunk).enumerate() {
            let construct = &construct;
            scope.spawn(move || {
                let mut scratch = TourScratch::default();
                for (k, s) in slot.iter_mut().enumerate() {
                    *s = Some(construct(&mut scratch, w * chunk + k));
                }
            });
        }
    });
    out.into_iter().map(|s| s.expect("every ant constructed")).collect()
}

/// The multi-threaded colony under [`crate::lifecycle::drive`]: each
/// step refreshes the choice info, fans construction out over `threads`
/// ([`construct_parallel`]), runs the local search on the fan-in thread,
/// and updates the pheromone sequentially.
///
/// Deterministic in the seed regardless of `threads` — the same per-ant
/// decorrelated streams as [`construct_parallel`], keyed by the colony's
/// own iteration counter.
pub struct ParallelAntSystem<'a> {
    aco: AntSystem<'a>,
    threads: usize,
    iteration: u64,
    best: Option<(Tour, u64)>,
}

impl<'a> ParallelAntSystem<'a> {
    /// Run `aco` (with its construction policy) over `threads` workers.
    pub fn new(aco: AntSystem<'a>, threads: usize) -> Self {
        ParallelAntSystem { aco, threads: threads.max(1), iteration: 0, best: None }
    }
}

impl Colony for ParallelAntSystem<'_> {
    fn step(&mut self, _k: u64, ctx: &SolveCtx) -> Result<Step, SimtError> {
        let ParallelAntSystem { aco, threads, iteration, best } = self;
        // Match sequential semantics: refresh choice info from the
        // pheromone laid down last iteration before constructing.
        let mut c = OpCounter::default();
        aco.refresh_choice(&mut c);
        let mut sols = construct_parallel(aco, aco.policy(), *iteration, *threads);
        *iteration += 1;
        // Local search runs on the host thread after the parallel fan-in,
        // so results stay thread-count independent.
        aco.apply_local_search(&mut sols);
        let (tour, len) = sols.iter().min_by_key(|&&(_, l)| l).cloned().expect("m >= 1 ants");
        if best.as_ref().is_none_or(|&(_, b)| len < b) {
            *best = Some((tour, len));
        }
        aco.update_pheromone(&sols, &mut c);
        // Dynamics are measured at the fan-in on the host thread, so they
        // are as thread-count independent as the tours themselves.
        let raw_dynamics = ctx.dynamics().map(|cfg| {
            let lens: Vec<u64> = sols.iter().map(|&(_, l)| l).collect();
            aco_obs::dynamics::compute_raw(cfg, &lens, aco.tau(), aco.n())
        });
        // Construction fans out over `threads`; the choice refresh and the
        // pheromone update stay sequential (memory-bound) and are priced
        // together, from their measured counters, as the pheromone span.
        let model = CpuModel::default();
        let (n, m) = (aco.n(), aco.m());
        let tour_counters = match aco.policy() {
            TourPolicy::FullProbabilistic => model::full_tour_counters(n, m),
            TourPolicy::NearestNeighborList => {
                model::nn_tour_counters(n, m, aco.params().nn_size.min(n - 1))
            }
        };
        Ok(Step {
            iter_best: len,
            best_so_far: best.as_ref().map(|&(_, l)| l).expect("set above"),
            raw_dynamics,
            phase_ms: PhaseMs {
                construction: model.time_ms(&tour_counters) / *threads as f64,
                local_search: aco.ls_iter_ms(&model),
                pheromone: model.time_ms(&c),
            },
        })
    }

    fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        self.aco.set_local_search(ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.aco.local_search_improvement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AcoParams;
    use aco_tsp::generator::uniform_random;

    #[test]
    fn thread_count_does_not_change_results() {
        let inst = uniform_random("par", 40, 800.0, 41);
        let aco = AntSystem::new(&inst, AcoParams::default().nn(12).seed(77).ants(16));
        let one = construct_parallel(&aco, TourPolicy::NearestNeighborList, 0, 1);
        let four = construct_parallel(&aco, TourPolicy::NearestNeighborList, 0, 4);
        let many = construct_parallel(&aco, TourPolicy::NearestNeighborList, 0, 16);
        let lens = |v: &Vec<(Tour, u64)>| v.iter().map(|&(_, l)| l).collect::<Vec<_>>();
        assert_eq!(lens(&one), lens(&four));
        assert_eq!(lens(&one), lens(&many));
    }

    #[test]
    fn different_iterations_give_different_tours() {
        let inst = uniform_random("par", 40, 800.0, 42);
        let aco = AntSystem::new(&inst, AcoParams::default().nn(12).seed(7).ants(8));
        let a = construct_parallel(&aco, TourPolicy::NearestNeighborList, 0, 4);
        let b = construct_parallel(&aco, TourPolicy::NearestNeighborList, 1, 4);
        let la: Vec<u64> = a.iter().map(|&(_, l)| l).collect();
        let lb: Vec<u64> = b.iter().map(|&(_, l)| l).collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn parallel_iterations_converge() {
        let inst = uniform_random("par", 60, 1000.0, 43);
        let aco = AntSystem::new(&inst, AcoParams::default().nn(15).seed(3));
        let mut colony = ParallelAntSystem::new(aco, 4);
        let ctx = SolveCtx::new();
        let bests: Vec<u64> = (0..15)
            .map(|k| colony.step(k, &ctx).expect("CPU steps cannot fail").iter_best)
            .collect();
        let first = bests[0];
        let min_late = *bests[5..].iter().min().expect("non-empty");
        assert!(min_late <= first, "search should not degrade: {min_late} vs {first}");
    }

    #[test]
    fn all_tours_valid_in_parallel() {
        let inst = uniform_random("par", 35, 700.0, 44);
        let aco = AntSystem::new(&inst, AcoParams::default().nn(10).seed(5).ants(12));
        for (t, l) in construct_parallel(&aco, TourPolicy::FullProbabilistic, 3, 3) {
            assert!(t.is_valid());
            assert_eq!(l, t.length(inst.matrix()));
        }
    }
}

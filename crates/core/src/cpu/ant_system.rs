//! Sequential Ant System — a faithful Rust port of the ACOTSP reference.
//!
//! This is the baseline the paper compares every GPU kernel against
//! ("we compare our implementations with the sequential code, written in
//! ANSI C, provided by Stützle"). The structure mirrors ACOTSP:
//!
//! * `choice_info[i][j] = tau[i][j]^alpha * eta[i][j]^beta` recomputed once
//!   per iteration over the cells the construction rule reads (only the
//!   candidate cells under the candidate list, as ACOTSP does),
//! * tour construction by the random-proportional rule, either over the
//!   full feasible neighbourhood ("fully probabilistic") or over a
//!   nearest-neighbour candidate list with a best-choice fallback,
//! * pheromone evaporation on every edge followed by per-ant deposit of
//!   `1/C_k`,
//! * `tau0 = m / C_nn` initialisation from a nearest-neighbour tour.
//!
//! The trails and the construction are the CPU colonies' shared core
//! (`construct.rs`); this module adds the AS update and iteration.
//! Every phase counts its abstract operations (see
//! [`super::counter::OpCounter`]) so the CPU cost model can price it.

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::{nearest_neighbor_tour, NearestNeighborLists, Tour, TspInstance};

use super::construct::{TourScratch, Trails};
use super::counter::{CpuModel, OpCounter};
use super::local_search::HostLocalSearch;
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};
use crate::params::AcoParams;

/// Which construction rule the ants use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TourPolicy {
    /// Scan all unvisited cities each step (paper Figure 4(b) baseline).
    FullProbabilistic,
    /// Roulette over the `nn` candidate list, argmax fallback
    /// (paper Figure 4(a) baseline; ACOTSP default).
    NearestNeighborList,
}

/// Per-phase operation counters of the last iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounters {
    /// `compute_choice_information` (the "Choice kernel" equivalent).
    pub choice: OpCounter,
    /// Tour construction for all `m` ants.
    pub tour: OpCounter,
    /// Pheromone evaporation + deposit.
    pub update: OpCounter,
}

/// One iteration's outcome.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Best tour length found this iteration.
    pub iter_best: u64,
    /// Best tour length found so far.
    pub best_so_far: u64,
    /// Operation counters of this iteration.
    pub counters: PhaseCounters,
}

/// The sequential Ant System.
pub struct AntSystem<'a> {
    inst: &'a TspInstance,
    params: AcoParams,
    n: usize,
    m: usize,
    /// `tau`, `eta^beta` and the choice cells, refreshed per iteration.
    trails: Trails,
    nn: std::sync::Arc<NearestNeighborLists>,
    /// Construction scratch reused by every ant of
    /// [`AntSystem::construct_solutions`].
    scratch: TourScratch,
    rng: PmRng,
    best: Option<(Tour, u64)>,
    /// Initial pheromone level (`m / C_nn`).
    tau0: f64,
    /// Construction rule [`Colony::step`] runs.
    policy: TourPolicy,
    /// Per-iteration local search (ACOTSP-style hybridisation).
    ls: HostLocalSearch,
}

impl<'a> AntSystem<'a> {
    /// Set up the colony on `inst`, computing the nearest-neighbour lists
    /// and greedy-tour length from scratch.
    pub fn new(inst: &'a TspInstance, params: AcoParams) -> Self {
        let nn = NearestNeighborLists::build(inst.matrix(), params.nn_size)
            .expect("instance has >= 2 cities");
        let c_nn = nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        Self::with_artifacts(inst, params, std::sync::Arc::new(nn), c_nn)
    }

    /// Set up the colony from precomputed, shared artifacts: `nn`
    /// candidate lists (depth ≥ `params.nn_size` is not required — the
    /// lists are used as given, and the `Arc` lets a batch of colonies
    /// share one allocation) and the nearest-neighbour tour length `c_nn`
    /// from city 0.
    /// The batch engine's artifact cache uses this to share the `O(n² log
    /// n)` list construction across jobs on the same instance.
    pub fn with_artifacts(
        inst: &'a TspInstance,
        params: AcoParams,
        nn: std::sync::Arc<NearestNeighborLists>,
        c_nn: u64,
    ) -> Self {
        let n = inst.n();
        let m = params.ants_for(n);
        let tau0 = m as f64 / c_nn as f64;
        let mut trails = Trails::new(inst, params.alpha as f64, params.beta as f64, tau0);
        trails.refresh(TourPolicy::NearestNeighborList, &nn, &mut OpCounter::default());
        AntSystem {
            inst,
            n,
            m,
            trails,
            scratch: TourScratch::default(),
            nn,
            rng: PmRng::new((params.seed % 0x7FFF_FFFF) as u32),
            best: None,
            tau0,
            policy: TourPolicy::NearestNeighborList,
            ls: HostLocalSearch::default(),
            params,
        }
    }

    /// Builder: the construction rule [`Colony::step`] runs (the ACOTSP
    /// default, [`TourPolicy::NearestNeighborList`], unless set).
    pub fn with_policy(mut self, policy: TourPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The construction rule [`Colony::step`] runs.
    pub fn policy(&self) -> TourPolicy {
        self.policy
    }

    /// Number of cities.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ants.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Initial pheromone level `m / C_nn`.
    pub fn tau0(&self) -> f64 {
        self.tau0
    }

    /// Pheromone matrix (row-major `n x n`).
    pub fn tau(&self) -> &[f64] {
        &self.trails.tau
    }

    /// Best solution found so far.
    pub fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    /// Parameters in use.
    pub fn params(&self) -> &AcoParams {
        &self.params
    }

    /// Configure the per-iteration local search: `ls` runs at each
    /// iteration boundary — after construction, before the pheromone
    /// update, so improved tours steer the deposit — on the tours `scope`
    /// selects. [`LocalSearch::PostPass`] does nothing here (it is an
    /// engine-level polish).
    pub fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        (self.ls.strategy, self.ls.scope) = (ls, scope);
    }

    /// Total tour-length reduction attributable to the per-iteration
    /// local search so far.
    pub fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    /// Analytic per-iteration price of the configured local search.
    pub(crate) fn ls_iter_ms(&self, model: &CpuModel) -> f64 {
        self.ls.iter_ms(self.n, self.nn.depth(), self.m, model)
    }

    /// Apply the configured local search to `sols` in place (iteration
    /// best or every ant), keeping the reported lengths exact and
    /// accumulating the improvement telemetry. Public so the parallel
    /// colony ([`super::parallel`]) shares the exact same semantics.
    pub fn apply_local_search(&mut self, sols: &mut [(Tour, u64)]) {
        self.ls.improve_scope(sols, self.inst.matrix(), &self.nn);
    }

    /// Construct one tour under `policy` from the caller's RNG stream and
    /// scratch, counting into `c` — the zero-allocation construction hot
    /// path (only the tour's own order vector is allocated, since it
    /// outlives the call) once a refresh covered `policy`. Immutable on
    /// `self` so colonies can run ants concurrently (see
    /// [`super::parallel`]).
    pub fn construct_one_with(
        &self,
        scratch: &mut TourScratch,
        rng: &mut PmRng,
        policy: TourPolicy,
        c: &mut OpCounter,
    ) -> (Tour, u64) {
        self.constructor(policy)(scratch, rng, c)
    }

    /// Tour construction under `policy` from one [`Trails::view`].
    pub(crate) fn constructor(
        &self,
        policy: TourPolicy,
    ) -> impl Fn(&mut TourScratch, &mut PmRng, &mut OpCounter) -> (Tour, u64) + Sync + '_ {
        let choice = self.trails.view(policy, &self.nn);
        move |scratch, rng, c| scratch.construct(self.inst, &choice, rng, c)
    }

    /// Construct tours for the whole colony from the colony's own stream.
    pub fn construct_solutions(
        &mut self,
        policy: TourPolicy,
        c: &mut OpCounter,
    ) -> Vec<(Tour, u64)> {
        let AntSystem { inst, m, trails, nn, scratch, rng, .. } = self;
        let choice = trails.view(policy, nn);
        (0..*m).map(|_| scratch.construct(inst, &choice, rng, c)).collect()
    }

    /// Evaporate and deposit (Equations 2–4 of the paper).
    pub fn update_pheromone(&mut self, sols: &[(Tour, u64)], c: &mut OpCounter) {
        self.trails.evaporate(self.params.rho as f64, c);
        for (tour, len) in sols {
            self.trails.deposit(tour, 1.0 / *len as f64, c);
        }
    }

    /// Recompute the choice info the colony's configured policy reads
    /// from the current pheromone.
    pub fn refresh_choice(&mut self, c: &mut OpCounter) {
        self.trails.refresh(self.policy, &self.nn, c);
    }

    /// One full AS iteration: choice info for `policy`, construction,
    /// local search (when configured), update.
    pub fn iterate(&mut self, policy: TourPolicy) -> IterationReport {
        self.iterate_dynamics(policy, None).0
    }

    /// [`iterate`](Self::iterate), additionally measuring search dynamics
    /// ([`aco_obs::RawDynamics`]: tour-length moments over the colony plus
    /// trail entropy and λ-branching at the iteration boundary) when a
    /// config is supplied — the O(n²) trail scans cost nothing when off.
    pub fn iterate_dynamics(
        &mut self,
        policy: TourPolicy,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> (IterationReport, Option<aco_obs::RawDynamics>) {
        let mut counters = PhaseCounters::default();
        self.trails.refresh(policy, &self.nn, &mut counters.choice);
        let mut sols = self.construct_solutions(policy, &mut counters.tour);
        self.apply_local_search(&mut sols);
        let iter_best = sols.iter().map(|&(_, l)| l).min().expect("m >= 1 ants");
        let best_tour = sols.iter().find(|&&(_, l)| l == iter_best).expect("found above");
        if self.best.as_ref().is_none_or(|&(_, b)| iter_best < b) {
            self.best = Some((best_tour.0.clone(), iter_best));
        }
        self.update_pheromone(&sols, &mut counters.update);
        let raw = dynamics.map(|cfg| {
            let lens: Vec<u64> = sols.iter().map(|&(_, l)| l).collect();
            aco_obs::dynamics::compute_raw(cfg, &lens, &self.trails.tau, self.n)
        });
        let rep = IterationReport {
            iter_best,
            best_so_far: self.best.as_ref().map(|&(_, l)| l).expect("just set"),
            counters,
        };
        (rep, raw)
    }

    /// Run `iters` iterations; returns the best length.
    pub fn run(&mut self, iters: usize, policy: TourPolicy) -> u64 {
        let mut last = u64::MAX;
        for _ in 0..iters {
            last = self.iterate(policy).best_so_far;
        }
        last
    }
}

/// The sequential colony under [`crate::lifecycle::drive`]: each step is
/// one [`AntSystem::iterate_dynamics`] with the configured policy, its
/// construction and update priced from the measured counters and the
/// local search analytically.
impl Colony for AntSystem<'_> {
    fn step(&mut self, _k: u64, ctx: &SolveCtx) -> Result<Step, SimtError> {
        let (rep, raw_dynamics) = self.iterate_dynamics(self.policy, ctx.dynamics());
        let model = CpuModel::default();
        let c = &rep.counters;
        Ok(Step {
            iter_best: rep.iter_best,
            best_so_far: rep.best_so_far,
            raw_dynamics,
            phase_ms: PhaseMs {
                construction: model.time_ms(&c.choice) + model.time_ms(&c.tour),
                local_search: self.ls_iter_ms(&model),
                pheromone: model.time_ms(&c.update),
            },
        })
    }

    fn best(&self) -> Option<(&Tour, u64)> {
        AntSystem::best(self)
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        AntSystem::set_local_search(self, ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }
}

/// Analytic counter models for instance sizes too large to execute, with
/// the expectations documented (and validated against measured counters in
/// the tests): a full-probabilistic roulette scans `~n/2` cells, a
/// candidate roulette `~nn/2`, and the NN fallback triggers on a fixed
/// fraction of steps (`FALLBACK_RATE`, measured on the paper's instance
/// family).
pub mod model {
    use super::OpCounter;

    /// Fraction of construction steps whose candidate list is exhausted
    /// (measured ≈ 0.12–0.2 on uniform instances with nn = 30; see tests).
    pub const FALLBACK_RATE: f64 = 0.15;

    /// Counters of `compute_choice_info` for an `n`-city instance.
    pub fn choice_counters(n: usize) -> OpCounter {
        let cells = (n * n) as u64;
        OpCounter {
            pow_calls: 2 * cells,
            flops: cells,
            loads: 2 * cells,
            stores: cells,
            alu: cells,
            ..Default::default()
        }
    }

    /// Counters of full-probabilistic construction for `m` ants.
    pub fn full_tour_counters(n: usize, m: usize) -> OpCounter {
        let steps = (m * (n - 1)) as u64;
        let n64 = n as u64;
        let scan = n64 / 2; // expected roulette trips
        OpCounter {
            loads: steps * (2 * n64 + scan + 1) + m as u64 * (n as u64 - 1),
            stores: steps * (n64 + 2),
            flops: steps * (n64 + scan + 1),
            branches: steps * (n64 + scan),
            alu: steps * (n64 + 4),
            rng: steps + m as u64,
            pow_calls: 0,
        }
    }

    /// Counters of candidate-list construction for `m` ants.
    pub fn nn_tour_counters(n: usize, m: usize, nn: usize) -> OpCounter {
        let steps = (m * (n - 1)) as u64;
        let nn64 = nn as u64;
        let n64 = n as u64;
        let scan = nn64 / 2;
        let fb = (steps as f64 * FALLBACK_RATE) as u64;
        OpCounter {
            loads: steps * (3 * nn64 + 1) + (steps - fb) * scan + fb * 2 * n64 + steps,
            stores: steps * (nn64 + 2),
            flops: steps * (nn64 + 1) + (steps - fb) * scan,
            branches: steps * nn64 + (steps - fb) * scan + fb * n64,
            alu: steps * (nn64 + 4) + fb * n64,
            rng: steps - fb + m as u64,
            pow_calls: 0,
        }
    }

    /// Counters of the pheromone update for `m` ants on `n` cities.
    pub fn update_counters(n: usize, m: usize) -> OpCounter {
        let cells = (n * n) as u64;
        let e = (m * n) as u64;
        OpCounter {
            loads: cells + 4 * e,
            stores: cells + 2 * e,
            flops: cells + 2 * e,
            alu: 4 * e,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::construct::{step_full, step_nn};
    use super::*;
    use aco_tsp::generator::uniform_random;

    fn small_instance(n: usize, seed: u64) -> aco_tsp::TspInstance {
        uniform_random("t", n, 1000.0, seed)
    }

    fn quick_params(seed: u64) -> AcoParams {
        AcoParams::default().nn(15).seed(seed)
    }

    #[test]
    fn tours_are_valid_under_both_policies() {
        let inst = small_instance(40, 1);
        for policy in [TourPolicy::FullProbabilistic, TourPolicy::NearestNeighborList] {
            let mut aco = AntSystem::new(&inst, quick_params(3).ants(10));
            let mut c = OpCounter::default();
            let sols = aco.construct_solutions(policy, &mut c);
            assert_eq!(sols.len(), 10);
            for (t, l) in &sols {
                assert!(t.is_valid());
                assert_eq!(*l, t.length(inst.matrix()), "reported length must be exact");
            }
        }
    }

    #[test]
    fn search_improves_over_iterations() {
        let inst = small_instance(60, 2);
        let mut aco = AntSystem::new(&inst, quick_params(7));
        let first = aco.iterate(TourPolicy::NearestNeighborList).iter_best;
        let final_best = aco.run(30, TourPolicy::NearestNeighborList);
        assert!(
            final_best <= first,
            "30 iterations should not be worse than iteration 1 ({final_best} vs {first})"
        );
        // And it should beat a random tour by a wide margin.
        let mut rng = rand::thread_rng();
        let random_len = Tour::random(60, &mut rng).length(inst.matrix());
        assert!(final_best < random_len);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = small_instance(30, 3);
        let run = |seed| {
            let mut aco = AntSystem::new(&inst, quick_params(seed).ants(8));
            aco.run(5, TourPolicy::NearestNeighborList)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12)); // overwhelmingly likely to differ
    }

    #[test]
    fn pheromone_stays_positive_and_symmetric() {
        let inst = small_instance(25, 4);
        let mut aco = AntSystem::new(&inst, quick_params(5).ants(6));
        for _ in 0..10 {
            aco.iterate(TourPolicy::NearestNeighborList);
        }
        let n = aco.n();
        for i in 0..n {
            for j in 0..n {
                let t = aco.tau()[i * n + j];
                assert!(t > 0.0, "tau[{i}][{j}] = {t}");
                let t2 = aco.tau()[j * n + i];
                assert!((t - t2).abs() < 1e-12 * t.max(1.0), "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn evaporation_contracts_unvisited_edges() {
        let inst = small_instance(20, 5);
        let mut aco = AntSystem::new(&inst, quick_params(6).ants(4));
        let tau_before = aco.tau0();
        let mut c = OpCounter::default();
        // Update with an empty solution set: pure evaporation.
        aco.update_pheromone(&[], &mut c);
        let expect = tau_before * (1.0 - 0.5);
        for &t in aco.tau() {
            assert!((t - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn deposit_adds_exactly_one_over_c_per_direction() {
        let inst = small_instance(10, 6);
        let mut aco = AntSystem::new(&inst, quick_params(7).ants(1).rho(1.0));
        let tour = Tour::identity(10);
        let len = tour.length(inst.matrix());
        let mut c = OpCounter::default();
        // rho = 1 wipes old pheromone, leaving exactly the deposits.
        aco.update_pheromone(&[(tour, len)], &mut c);
        let n = 10;
        let dep = 1.0 / len as f64;
        for k in 0..n {
            let i = k;
            let j = (k + 1) % n;
            assert!((aco.tau()[i * n + j] - dep).abs() < 1e-18);
            assert!((aco.tau()[j * n + i] - dep).abs() < 1e-18);
        }
        // A non-tour edge has zero pheromone after rho = 1 evaporation.
        assert_eq!(aco.tau()[2], 0.0); // edge (0,2) not in the identity tour
    }

    #[test]
    fn counter_models_match_measurement() {
        let inst = small_instance(120, 8);
        let mut aco = AntSystem::new(&inst, AcoParams::default().nn(20).seed(42));
        let rep = aco.iterate(TourPolicy::FullProbabilistic);
        let measured = rep.counters.tour;
        let modeled = model::full_tour_counters(120, 120);
        for (got, want, what) in [
            (measured.loads, modeled.loads, "loads"),
            (measured.flops, modeled.flops, "flops"),
            (measured.rng, modeled.rng, "rng"),
        ] {
            let rel = (got as f64 - want as f64).abs() / want as f64;
            assert!(rel < 0.25, "{what}: measured {got} vs modeled {want} ({rel:.2})");
        }

        let mut aco2 = AntSystem::new(&inst, AcoParams::default().nn(20).seed(42));
        let rep2 = aco2.iterate(TourPolicy::NearestNeighborList);
        let measured2 = rep2.counters.tour;
        let modeled2 = model::nn_tour_counters(120, 120, 20);
        let rel = (measured2.loads as f64 - modeled2.loads as f64).abs() / modeled2.loads as f64;
        assert!(rel < 0.35, "nn loads: {} vs {}", measured2.loads, modeled2.loads);

        let measured_u = rep.counters.update;
        let modeled_u = model::update_counters(120, 120);
        assert_eq!(measured_u.stores, modeled_u.stores);
        assert_eq!(measured_u.loads, modeled_u.loads);
    }

    /// When the candidate list covers *all* unvisited cities (depth
    /// `n-1`), the NN-list roulette draws from exactly the same
    /// probability distribution as the full roulette — the lists only
    /// reorder the cumulative scan. Pin that equivalence empirically:
    /// identical RNG streams through both steps must select each city
    /// with matching frequency.
    #[test]
    fn candidate_roulette_matches_full_roulette_when_list_covers_all() {
        let n = 10;
        let inst = small_instance(n, 12);
        // Depth n-1: every other city is a candidate of every city.
        let mut aco = AntSystem::new(&inst, AcoParams::default().nn(n - 1).seed(3).ants(4));
        // A couple of iterations so choice_info is non-uniform.
        aco.iterate(TourPolicy::NearestNeighborList);
        aco.iterate(TourPolicy::NearestNeighborList);

        let cur = 0usize;
        let mut visited = vec![false; n];
        visited[cur] = true;
        visited[4] = true;
        visited[7] = true;

        let samples = 4000u32;
        let mut full_counts = vec![0u32; n];
        let mut nn_counts = vec![0u32; n];
        let mut prob = vec![0.0f64; n];
        // Park–Miller's first draws from consecutive small seeds are
        // heavily correlated; burn a few to decorrelate the streams.
        let warmed = |seed: u32| {
            let mut rng = aco_simt::rng::PmRng::new(seed);
            for _ in 0..8 {
                rng.next_f64();
            }
            rng
        };
        let full = aco.trails.view(TourPolicy::FullProbabilistic, &aco.nn);
        let row = &full.cells[cur * n..(cur + 1) * n];
        let unvisited: Vec<u32> = (0..n as u32).filter(|&j| !visited[j as usize]).collect();
        let near = aco.trails.view(TourPolicy::NearestNeighborList, &aco.nn);
        let vals = &near.cells[cur * (n - 1)..(cur + 1) * (n - 1)];
        let value = |j| aco.trails.choice(cur, j);
        for s in 1..=samples {
            let mut c = OpCounter::default();
            let cands = aco.nn.neighbors(cur);
            full_counts[step_full(row, &unvisited, &mut prob, &mut warmed(s), &mut c)] += 1;
            let step = step_nn(vals, cands, &visited, &mut prob, &mut warmed(s), &mut c, value);
            nn_counts[step] += 1;
        }
        for city in 0..n {
            let diff = (full_counts[city] as f64 - nn_counts[city] as f64).abs() / samples as f64;
            assert!(
                diff < 0.05,
                "city {city}: full {} vs nn {} over {samples} draws",
                full_counts[city],
                nn_counts[city]
            );
        }
        assert_eq!(full_counts[cur], 0, "visited city must never be selected");
        assert_eq!(full_counts[4] + nn_counts[4] + full_counts[7] + nn_counts[7], 0);
    }

    #[test]
    fn choice_counters_are_exact() {
        let inst = small_instance(50, 9);
        let mut aco = AntSystem::new(&inst, quick_params(1).ants(5));
        let rep = aco.iterate(TourPolicy::NearestNeighborList);
        assert_eq!(rep.counters.choice, model::choice_counters(50));
    }

    /// One AS iteration's choice and construction counters, exactly. The
    /// construction must charge ACOTSP's loops (an `n`-slot gather and a
    /// scan up to the drawn city), whatever the host loop visits.
    #[test]
    fn iteration_counters_are_pinned() {
        let inst = small_instance(60, 14);
        let pinned = [
            (
                TourPolicy::FullProbabilistic,
                OpCounter {
                    alu: 45312,
                    flops: 64801,
                    pow_calls: 0,
                    loads: 107281,
                    stores: 43896,
                    rng: 720,
                    branches: 64093,
                },
            ),
            (
                TourPolicy::NearestNeighborList,
                OpCounter {
                    alu: 15252,
                    flops: 14293,
                    pow_calls: 0,
                    loads: 39163,
                    stores: 12036,
                    rng: 690,
                    branches: 15415,
                },
            ),
        ];
        for (policy, tour) in pinned {
            let mut aco = AntSystem::new(&inst, quick_params(4).ants(12)).with_policy(policy);
            aco.iterate(policy);
            let rep = aco.iterate(policy);
            assert_eq!(rep.counters.choice, model::choice_counters(60), "{policy:?}");
            assert_eq!(rep.counters.tour, tour, "{policy:?}");
        }
    }

    /// A construction is exact whatever the last refresh covered: after a
    /// refresh under the other policy, every construction entry point
    /// builds the tours, lengths and counts of a colony refreshed under
    /// the policy it runs.
    #[test]
    fn construction_is_exact_whatever_the_last_refresh_covered() {
        use super::super::parallel::construct_parallel;
        let inst = small_instance(50, 15);
        let policies = [TourPolicy::FullProbabilistic, TourPolicy::NearestNeighborList];
        for (policy, other) in [(policies[0], policies[1]), (policies[1], policies[0])] {
            // Two iterations leave the trails uneven; then the colony
            // refreshes under its configured policy.
            let colony = |refresh: TourPolicy| {
                let mut aco = AntSystem::new(&inst, quick_params(21).ants(6)).with_policy(refresh);
                aco.iterate(policy);
                aco.iterate(policy);
                aco.refresh_choice(&mut OpCounter::default());
                aco
            };
            let (mut same, mut cross) = (colony(policy), colony(other));
            let one_by_one = |aco: &AntSystem| {
                let (mut scratch, mut c) = (TourScratch::default(), OpCounter::default());
                let mut rng = PmRng::new(99);
                let tours: Vec<_> = (0..4)
                    .map(|_| aco.construct_one_with(&mut scratch, &mut rng, policy, &mut c))
                    .collect();
                (tours, c)
            };
            assert_eq!(one_by_one(&same), one_by_one(&cross), "{policy:?}: construct_one_with");
            for threads in [1, 3] {
                assert_eq!(
                    construct_parallel(&same, policy, 5, threads),
                    construct_parallel(&cross, policy, 5, threads),
                    "{policy:?}: construct_parallel on {threads} threads"
                );
            }
            let (mut c_same, mut c_cross) = (OpCounter::default(), OpCounter::default());
            assert_eq!(
                same.construct_solutions(policy, &mut c_same),
                cross.construct_solutions(policy, &mut c_cross),
                "{policy:?}: construct_solutions"
            );
            assert_eq!(c_same, c_cross, "{policy:?}: construct_solutions counters");
        }
    }

    #[test]
    fn cpu_model_prices_phases_sensibly() {
        let inst = small_instance(100, 10);
        let mut aco = AntSystem::new(&inst, AcoParams::default().nn(20).seed(2));
        let rep = aco.iterate(TourPolicy::FullProbabilistic);
        let model = super::super::counter::CpuModel::default();
        let t_tour = model.time_ms(&rep.counters.tour);
        let t_update = model.time_ms(&rep.counters.update);
        assert!(t_tour > 0.0 && t_update > 0.0);
        // Construction dominates update for AS (paper Section V).
        assert!(t_tour > t_update);
    }
}

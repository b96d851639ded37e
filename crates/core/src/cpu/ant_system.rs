//! Sequential Ant System — a faithful Rust port of the ACOTSP reference.
//!
//! This is the baseline the paper compares every GPU kernel against
//! ("we compare our implementations with the sequential code, written in
//! ANSI C, provided by Stützle"). The structure mirrors ACOTSP:
//!
//! * `choice_info[i][j] = tau[i][j]^alpha * eta[i][j]^beta` recomputed once
//!   per iteration,
//! * tour construction by the random-proportional rule, either over the
//!   full feasible neighbourhood ("fully probabilistic") or over a
//!   nearest-neighbour candidate list with a best-choice fallback,
//! * pheromone evaporation on every edge followed by per-ant deposit of
//!   `1/C_k`,
//! * `tau0 = m / C_nn` initialisation from a nearest-neighbour tour.
//!
//! Every phase counts its abstract operations (see
//! [`super::counter::OpCounter`]) so the CPU cost model can price it.

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::{nearest_neighbor_tour, NearestNeighborLists, Tour, TspInstance};

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

/// Reusable per-ant construction scratch: the visited flags and roulette
/// probabilities every tour needs. One scratch serves any number of
/// sequential constructions (each resets it), so a colony — or one worker
/// thread of a parallel colony — allocates these buffers once instead of
/// once per ant.
#[derive(Debug, Default, Clone)]
pub struct TourScratch {
    visited: Vec<bool>,
    prob: Vec<f64>,
}

impl TourScratch {
    /// Scratch sized for `n` cities and candidate depth `nn`.
    pub fn new(n: usize, nn: usize) -> Self {
        TourScratch { visited: vec![false; n], prob: vec![0.0; n.max(nn)] }
    }

    fn reset(&mut self, n: usize, nn: usize) {
        self.visited.clear();
        self.visited.resize(n, false);
        let want = n.max(nn);
        if self.prob.len() < want {
            self.prob.resize(want, 0.0);
        }
    }
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
    /// Pheromone matrix, `f64` like ACOTSP.
    tau: Vec<f64>,
    /// Heuristic matrix `1/d`.
    eta: Vec<f64>,
    /// `tau^alpha * eta^beta`, recomputed per iteration.
    choice: Vec<f64>,
    nn: std::sync::Arc<NearestNeighborLists>,
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
        let mut eta = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let d = inst.dist(i, j);
                eta[i * n + j] = if d == 0 { 10.0 } else { 1.0 / d as f64 };
            }
        }
        let mut s = AntSystem {
            inst,
            n,
            m,
            tau: vec![tau0; n * n],
            eta,
            choice: vec![0.0; n * n],
            nn,
            rng: PmRng::new((params.seed % 0x7FFF_FFFF) as u32),
            best: None,
            tau0,
            policy: TourPolicy::NearestNeighborList,
            ls: HostLocalSearch::default(),
            params,
        };
        let mut scratch = OpCounter::default();
        s.compute_choice_info(&mut scratch);
        s
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
        &self.tau
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

    /// Recompute `choice_info` from the current pheromone.
    fn compute_choice_info(&mut self, c: &mut OpCounter) {
        let (a, b) = (self.params.alpha as f64, self.params.beta as f64);
        for i in 0..self.n {
            for j in 0..self.n {
                let idx = i * self.n + j;
                self.choice[idx] = self.tau[idx].powf(a) * self.eta[idx].powf(b);
            }
        }
        let cells = (self.n * self.n) as u64;
        c.pow_calls += 2 * cells;
        c.flops += cells;
        c.loads += 2 * cells;
        c.stores += cells;
        c.alu += cells;
    }

    /// Construct one tour under `policy` with an explicit RNG stream,
    /// counting into `c`. Immutable on `self` so colonies can run ants
    /// concurrently (see [`super::parallel`]). Allocates fresh scratch;
    /// loops should use [`AntSystem::construct_one_with`] and reuse one
    /// [`TourScratch`] across ants.
    pub fn construct_one(
        &self,
        rng: &mut PmRng,
        policy: TourPolicy,
        c: &mut OpCounter,
    ) -> (Tour, u64) {
        let mut scratch = TourScratch::new(self.n, self.nn.depth());
        self.construct_one_with(&mut scratch, rng, policy, c)
    }

    /// [`AntSystem::construct_one`] against caller-owned scratch — the
    /// zero-allocation construction hot path (only the tour's own order
    /// vector is allocated, since it outlives the call).
    pub fn construct_one_with(
        &self,
        scratch: &mut TourScratch,
        rng: &mut PmRng,
        policy: TourPolicy,
        c: &mut OpCounter,
    ) -> (Tour, u64) {
        let n = self.n;
        scratch.reset(n, self.nn.depth());
        let TourScratch { visited, prob } = scratch;
        let mut order = Vec::with_capacity(n);

        let start = (rng.next_f64() * n as f64) as usize % n;
        c.rng += 1;
        visited[start] = true;
        order.push(start as u32);
        let mut cur = start;
        let mut len = 0u64;

        for _ in 1..n {
            let next = match policy {
                TourPolicy::FullProbabilistic => self.step_full(rng, cur, visited, prob, c),
                TourPolicy::NearestNeighborList => self.step_nn(rng, cur, visited, prob, c),
            };
            debug_assert!(!visited[next]);
            visited[next] = true;
            order.push(next as u32);
            len += self.inst.dist(cur, next) as u64;
            cur = next;
            c.alu += 4;
            c.stores += 2;
            c.loads += 1;
        }
        len += self.inst.dist(cur, start) as u64;
        (Tour::new_unchecked(order), len)
    }

    /// Random-proportional step over the full feasible neighbourhood
    /// (ACOTSP's fully probabilistic rule; two passes like the C code).
    fn step_full(
        &self,
        rng: &mut PmRng,
        cur: usize,
        visited: &[bool],
        prob: &mut [f64],
        c: &mut OpCounter,
    ) -> usize {
        let n = self.n;
        let row = &self.choice[cur * n..(cur + 1) * n];
        let mut sum = 0.0f64;
        for j in 0..n {
            let p = if visited[j] { 0.0 } else { row[j] };
            prob[j] = p;
            sum += p;
        }
        c.loads += 2 * n as u64;
        c.stores += n as u64;
        c.flops += n as u64;
        c.branches += n as u64;
        c.alu += n as u64;

        debug_assert!(sum > 0.0, "some city must remain feasible");
        let r = rng.next_f64() * sum;
        c.rng += 1;
        c.flops += 1;

        let mut cum = 0.0f64;
        let mut j = 0usize;
        loop {
            cum += prob[j];
            c.loads += 1;
            c.flops += 1;
            c.branches += 1;
            if cum >= r {
                break;
            }
            j += 1;
            if j == n {
                // Floating-point shortfall: take the last feasible city.
                j = (0..n).rfind(|&k| !visited[k]).expect("feasible city exists");
                break;
            }
        }
        if visited[j] {
            // Zero-probability cell hit by rounding; advance to feasible.
            j = (0..n)
                .find(|&k| !visited[k] && prob[k] > 0.0)
                .unwrap_or_else(|| (0..n).find(|&k| !visited[k]).expect("feasible city exists"));
        }
        j
    }

    /// Candidate-list step (ACOTSP `neighbour_choose_and_move_to_next`):
    /// roulette over the unvisited nearest neighbours, falling back to the
    /// best `choice_info` city when all candidates are exhausted.
    fn step_nn(
        &self,
        rng: &mut PmRng,
        cur: usize,
        visited: &[bool],
        prob: &mut [f64],
        c: &mut OpCounter,
    ) -> usize {
        let n = self.n;
        let nn = self.nn.depth();
        let cands = self.nn.neighbors(cur);
        let row = &self.choice[cur * n..(cur + 1) * n];

        let mut sum = 0.0f64;
        for (k, &cand) in cands.iter().enumerate() {
            let p = if visited[cand as usize] { 0.0 } else { row[cand as usize] };
            prob[k] = p;
            sum += p;
        }
        c.loads += 3 * nn as u64;
        c.stores += nn as u64;
        c.flops += nn as u64;
        c.branches += nn as u64;
        c.alu += nn as u64;

        if sum <= 0.0 {
            // All candidates visited: deterministic best choice over all
            // cities (the divergent fallback path on the GPU).
            let mut best = usize::MAX;
            let mut best_v = f64::NEG_INFINITY;
            for j in 0..n {
                if !visited[j] && row[j] > best_v {
                    best_v = row[j];
                    best = j;
                }
            }
            c.loads += 2 * n as u64;
            c.branches += n as u64;
            c.alu += n as u64;
            return best;
        }

        let r = rng.next_f64() * sum;
        c.rng += 1;
        c.flops += 1;
        let mut cum = 0.0f64;
        let mut k = 0usize;
        loop {
            cum += prob[k];
            c.loads += 1;
            c.flops += 1;
            c.branches += 1;
            if cum >= r || k == nn - 1 {
                break;
            }
            k += 1;
        }
        // Guard against landing on a zero-probability candidate.
        if prob[k] == 0.0 {
            k = (0..nn).find(|&q| prob[q] > 0.0).expect("sum > 0 implies a candidate");
        }
        cands[k] as usize
    }

    /// Construct tours for the whole colony from the colony's own stream.
    pub fn construct_solutions(
        &mut self,
        policy: TourPolicy,
        c: &mut OpCounter,
    ) -> Vec<(Tour, u64)> {
        let mut rng = self.rng.clone();
        let mut scratch = TourScratch::new(self.n, self.nn.depth());
        let sols = (0..self.m)
            .map(|_| self.construct_one_with(&mut scratch, &mut rng, policy, c))
            .collect();
        self.rng = rng;
        sols
    }

    /// Construct one tour from a derived seed (parallel colonies give every
    /// ant its own decorrelated stream so results are thread-count
    /// independent).
    pub fn construct_with_seed(&self, ant_seed: u32, policy: TourPolicy) -> (Tour, u64) {
        let mut scratch = TourScratch::new(self.n, self.nn.depth());
        self.construct_with_seed_in(&mut scratch, ant_seed, policy)
    }

    /// [`AntSystem::construct_with_seed`] against caller-owned scratch
    /// (each parallel worker reuses one scratch across its ants).
    pub fn construct_with_seed_in(
        &self,
        scratch: &mut TourScratch,
        ant_seed: u32,
        policy: TourPolicy,
    ) -> (Tour, u64) {
        let mut rng = PmRng::new(ant_seed);
        let mut c = OpCounter::default();
        self.construct_one_with(scratch, &mut rng, policy, &mut c)
    }

    /// Evaporate and deposit (Equations 2–4 of the paper).
    pub fn update_pheromone(&mut self, sols: &[(Tour, u64)], c: &mut OpCounter) {
        let n = self.n;
        let keep = 1.0 - self.params.rho as f64;
        for t in self.tau.iter_mut() {
            *t *= keep;
        }
        let cells = (n * n) as u64;
        c.loads += cells;
        c.stores += cells;
        c.flops += cells;

        for (tour, len) in sols {
            let dep = 1.0 / *len as f64;
            let order = tour.order();
            for k in 0..n {
                let i = order[k] as usize;
                let j = order[(k + 1) % n] as usize;
                self.tau[i * n + j] += dep;
                self.tau[j * n + i] += dep;
            }
            let e = n as u64;
            c.loads += 4 * e;
            c.stores += 2 * e;
            c.flops += 2 * e;
            c.alu += 4 * e;
        }
    }

    /// Evaporate all trails by `(1 - rho)` (Equation 2 alone). Building
    /// block for the elitist / rank-based variants.
    pub fn evaporate(&mut self, c: &mut OpCounter) {
        let keep = 1.0 - self.params.rho as f64;
        for t in self.tau.iter_mut() {
            *t *= keep;
        }
        let cells = (self.n * self.n) as u64;
        c.loads += cells;
        c.stores += cells;
        c.flops += cells;
    }

    /// Deposit `amount` on every edge of `tour`, both directions.
    pub fn deposit_weighted(&mut self, tour: &Tour, amount: f64, c: &mut OpCounter) {
        let n = self.n;
        for k in 0..n {
            let i = tour.order()[k] as usize;
            let j = tour.order()[(k + 1) % n] as usize;
            self.tau[i * n + j] += amount;
            self.tau[j * n + i] += amount;
        }
        let e = n as u64;
        c.loads += 2 * e;
        c.stores += 2 * e;
        c.flops += 2 * e;
        c.alu += 4 * e;
    }

    /// Recompute `choice_info` after custom pheromone edits.
    pub fn refresh_choice(&mut self, c: &mut OpCounter) {
        self.compute_choice_info(c);
    }

    /// One full AS iteration: choice info, construction, local search
    /// (when configured), update.
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
        self.compute_choice_info(&mut counters.choice);
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
            aco_obs::dynamics::compute_raw(cfg, &lens, &self.tau, self.n)
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
        for s in 1..=samples {
            let mut c = OpCounter::default();
            full_counts[aco.step_full(&mut warmed(s), cur, &visited, &mut prob, &mut c)] += 1;
            nn_counts[aco.step_nn(&mut warmed(s), cur, &visited, &mut prob, &mut c)] += 1;
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

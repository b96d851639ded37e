//! GPU Ant Colony System — the paper's named future work.
//!
//! "We will also implement other ACO algorithms, such as the Ant Colony
//! System, which can also be efficiently implemented on the GPU"
//! (Section VI). This module does exactly that, reusing the simulator
//! substrate:
//!
//! * **Tour kernel** (task-parallel, candidate lists): the pseudo-random
//!   proportional rule — with probability `q0` take the best candidate,
//!   otherwise roulette — plus ACS's *local pheromone update*
//!   (`tau = (1-xi) tau + xi tau0`) applied to every crossed edge as the
//!   ants move. Concurrent ants race on popular edges exactly as a real
//!   CUDA port would; the simulator resolves stores in lane order, and the
//!   rule's convex-combination form keeps any interleaving well-defined.
//! * **Global update kernel**: one thread per tour position of the
//!   best-so-far ant only (`tau = (1-rho) tau + rho/C_bs`), a tiny launch
//!   compared to the Ant System's full-matrix update.
//!
//! The heuristic weights live in a precomputed `eta^beta` table (the
//! Choice kernel with `alpha = 0`), since ACS multiplies raw `tau` in.
//!
//! **Passes.** A step of the tour kernel is four lane passes, each body
//! written once through an [`Alu`] and charged the tally derived from it
//! (see [`crate::gpu::tour::task`]): the candidate loop, with the ant's
//! tabu row hoisted; the choice of ants with a positive candidate, whose
//! best pick and roulette (`Candidates::best`, `Candidates::roulette`)
//! are Table II rows 4–6's own, the roulette seeded with the pick; the
//! all-city fallback of the others; and the move with the local update
//! of both directions of the crossed edge. The closing edge adds only its
//! length: neither this kernel nor the CPU colony ([`crate::cpu::acs`])
//! applies the local update to it, although ACOTSP does.
//! `tests/lane_pass_oracle.rs` pins every counter, the modeled time, the
//! tours, the lengths and `tau` by fingerprints recorded against the
//! op-by-op kernel.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::alu::Memo;
use aco_simt::lane_pass;
use aco_simt::prelude::*;
use aco_simt::rng::PmRng;
use aco_simt::SimtError;
use aco_tsp::{Tour, TspInstance};

use super::buffers::ColonyBuffers;
use super::choice::ChoiceKernel;
use super::tour::task::Candidates;
use super::{ExecThreads, GpuLocalSearch};
use crate::cpu::acs::AcsParams;
use crate::lifecycle::{Colony, PhaseMs, SolveCtx, Step};
use crate::params::AcoParams;

/// Per-iteration report: `(best_so_far, tour_ms, update_ms, ls_ms)`.
pub type AcsIterReport = (u64, f64, f64, f64);

/// ACS tour construction: pseudo-random proportional rule + local update.
pub struct AcsTourKernel {
    /// Device buffers; `choice` holds `eta^beta` (not `tau^a eta^b`).
    pub bufs: ColonyBuffers,
    /// Exploitation probability `q0`.
    pub q0: f32,
    /// Local evaporation `xi`.
    pub xi: f32,
    /// Initial pheromone `tau0 = 1/(n C_nn)`.
    pub tau0: f32,
    /// Colony seed.
    pub seed: u64,
    /// Iteration number.
    pub iteration: u64,
}

impl AcsTourKernel {
    /// Launch geometry: ACS colonies are small (10 ants classically), so
    /// one modest block usually covers the colony.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.bufs.m.div_ceil(64), 64).regs(26)
    }
}

impl Kernel for AcsTourKernel {
    fn name(&self) -> &'static str {
        "acs_tour"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let (n, nn, bufs) = (self.bufs.n, self.bufs.nn, self.bufs);
        let tid = ctx.global_thread_idx();
        let m = ctx.splat_u32(self.bufs.m);
        let is_ant = ctx.ult(&tid, &m);
        let mut cands = Candidates::new(ctx.block_dim, nn);
        // Each per-step pass site's tally, derived on its first call.
        let [cand_tally, choose_tally, fallback_tally, step_tally]: [Memo<Tally>; 4] =
            Default::default();

        ctx.if_then(gm, &is_ant, |ctx, gm| {
            let mut lcg = {
                let base = ctx.block_idx * ctx.block_dim;
                let seed = self.seed ^ self.iteration.wrapping_mul(0xA5A5_1234);
                ctx.reg_from_fn_u32(|lane| PmRng::thread_seed(seed, (base as usize + lane) as u64))
            };

            // The constants every step reads, splatted once per ant.
            let [nreg, nnreg, one_u] = [n, nn, 1].map(|v| ctx.splat_u32(v));
            let [one_f, zero_f, q0, xi, keep, tau0] =
                [1.0, 0.0, self.q0, self.xi, 1.0 - self.xi, self.tau0].map(|v| ctx.splat_f32(v));
            let xtau0 = ctx.fmul(&xi, &tau0);

            // Start city.
            let r0 = ctx.lcg_next_f32(&mut lcg);
            let nf = ctx.splat_f32(n as f32);
            let sf = ctx.fmul(&r0, &nf);
            let raw = ctx.f2u(&sf);
            let nm1 = ctx.splat_u32(n - 1);
            let start = ctx.imin(&raw, &nm1);
            let stride = ctx.splat_u32(bufs.stride);
            let base = ctx.imul(&tid, &stride);
            ctx.st_global_u32(gm, bufs.tours, &base, &start);
            let vrow = ctx.imul(&tid, &nreg);
            let vidx = ctx.iadd(&vrow, &start);
            ctx.st_global_u32(gm, bufs.visited, &vidx, &one_u);

            let mut cur = start.clone();
            let mut len = ctx.splat_f32(0.0);

            for step in 1..n {
                // Per candidate: a splat, the list index add and load, the
                // value, the tabu index add and load, `1 - (float)flag`,
                // the product and the running sum.
                let (curn, sum) = lane_pass!(ctx, &cand_tally, |pass| {
                    let a = pass.alu();
                    let curn = pass.reg(|l| a.imul(cur.lane(l), nreg.lane(l)));
                    let curnn = pass.reg(|l| a.imul(cur.lane(l), nnreg.lane(l)));
                    let (mut sum, mut v) = (pass.reg(|_| a.mov(0.0f32)), pass.reg(|_| 0.0f32));
                    pass.repeat(nn, |pass, c| {
                        let slots = cands.slots(c);
                        let (c, city) = (a.mov(c), &mut cands.city[slots.clone()]);
                        let lidx = |l| a.iadd(curnn.lane(l), c);
                        pass.ld_global_u32(gm, bufs.nn_list, lidx, |l, x| city[l] = x);
                        let cidx = |l| a.iadd(curn.lane(l), city[l]);
                        pass.ld_f32(gm, bufs.tau, false, cidx, |l, t| v.set_lane(l, t));
                        // The `eta^beta` load reuses the index register.
                        let reuse = |l: usize| curn.lane(l).wrapping_add(city[l]);
                        let eb = |l, eb| v.set_lane(l, a.fmul(v.lane(l), eb));
                        pass.ld_f32(gm, bufs.choice, false, reuse, eb);
                        let p = &mut cands.p[slots];
                        let vi = |l| a.iadd(vrow.lane(l), city[l]);
                        pass.ld_global_u32(gm, bufs.visited, vi, |l, flag| {
                            p[l] = a.fmul(v.lane(l), a.fsub(one_f.lane(l), a.u2f(flag)));
                            sum.set_lane(l, a.fadd(sum.lane(l), p[l]));
                        });
                    });
                    (curn, sum)
                });
                let cands = &cands;

                let feasible = ctx.fgt(&sum, &zero_f);
                let mut next = ctx.splat_u32(0);
                ctx.branch(&feasible);
                ctx.with_mask(gm, &feasible, |ctx, _| {
                    // Exploit with probability q0, else the roulette from
                    // the exploitation pick.
                    let chosen = lane_pass!(ctx, &choose_tally, |pass| {
                        let a = pass.alu();
                        pass.reg(|l| {
                            let mut state = lcg.lane(l);
                            let exploit = a.flt(a.draw(&mut state), q0.lane(l));
                            let best = cands.best(a, l);
                            let target = a.fmul(a.draw(&mut state), sum.lane(l));
                            let (spun, _) = cands.roulette(a, l, target, best);
                            lcg.set_lane(l, state);
                            a.select(exploit, best, spun)
                        })
                    });
                    ctx.assign_u32(&mut next, &chosen);
                });
                ctx.with_mask(gm, &feasible.not(), |ctx, gm| {
                    // Every candidate visited: the best unvisited city by
                    // score `(value + 1) * unvisited`; per city a splat, the
                    // value, the tabu index add and load, the score, a
                    // compare and two selects.
                    let best = lane_pass!(ctx, &fallback_tally, |pass| {
                        let a = pass.alu();
                        let (nreg, one) = (a.mov(n), a.mov(1.0f32));
                        let curn = pass.reg(|l| a.imul(cur.lane(l), nreg));
                        let row = pass.reg(|l| a.imul(tid.lane(l), nreg));
                        let mut best_v = pass.reg(|_| a.mov(-1.0f32));
                        let (mut best_j, mut v) = (pass.reg(|_| a.mov(0u32)), pass.reg(|_| 0.0));
                        pass.repeat(n, |pass, j| {
                            let j = a.mov(j);
                            let cidx = |l| a.iadd(curn.lane(l), j);
                            pass.ld_f32(gm, bufs.tau, false, cidx, |l, t| v.set_lane(l, t));
                            let reuse = |l: usize| curn.lane(l).wrapping_add(j);
                            let eb = |l, eb| v.set_lane(l, a.fmul(v.lane(l), eb));
                            pass.ld_f32(gm, bufs.choice, false, reuse, eb);
                            let vidx = |l| a.iadd(row.lane(l), j);
                            pass.ld_global_u32(gm, bufs.visited, vidx, |l, flag| {
                                let unvis = a.fsub(one, a.u2f(flag));
                                let score = a.fmul(a.fadd(v.lane(l), one), unvis);
                                let better = a.fgt(score, best_v.lane(l));
                                best_v.set_lane(l, a.select(better, score, best_v.lane(l)));
                                best_j.set_lane(l, a.select(better, j, best_j.lane(l)));
                            });
                        });
                        best_j
                    });
                    ctx.assign_u32(&mut next, &best);
                });

                // Move (record, mark, add the edge's length), then the
                // local update `tau = (1-xi) tau + xi tau0` of the crossed
                // edge, both directions: a plain read-modify-write whose
                // concurrent ants race benignly, as on real hardware. Each
                // update's store reuses its load's index register.
                cur = lane_pass!(ctx, &step_tally, |pass| {
                    let a = pass.alu();
                    let s = a.mov(step);
                    let pos = |l| a.iadd(base.lane(l), s);
                    pass.st_global_u32(gm, bufs.tours, pos, |l| next.lane(l));
                    let vi = |l| a.iadd(vrow.lane(l), next.lane(l));
                    pass.st_global_u32(gm, bufs.visited, vi, |l| one_u.lane(l));
                    let edge = |l| a.iadd(curn.lane(l), next.lane(l));
                    let sum_len = |l, d| len.set_lane(l, a.fadd(len.lane(l), d));
                    pass.ld_f32(gm, bufs.dist, false, edge, sum_len);
                    let (keep, xtau0) = (&keep, &xtau0);
                    let update = |t: &Reg<f32>, l| a.ffma(t.lane(l), keep.lane(l), xtau0.lane(l));
                    let mut t = pass.reg(|_| 0.0f32);
                    pass.ld_f32(gm, bufs.tau, false, edge, |l, x| t.set_lane(l, x));
                    let fwd = |l: usize| curn.lane(l).wrapping_add(next.lane(l));
                    pass.st_global_f32(gm, bufs.tau, fwd, |l| update(&t, l));
                    let back = |l| a.iadd(a.imul(next.lane(l), nreg.lane(l)), cur.lane(l));
                    pass.ld_f32(gm, bufs.tau, false, back, |l, x| t.set_lane(l, x));
                    let bwd = |l: usize| next.lane(l).wrapping_mul(n).wrapping_add(cur.lane(l));
                    pass.st_global_f32(gm, bufs.tau, bwd, |l| update(&t, l));
                    pass.reg(|l| a.mov(next.lane(l)))
                });
            }

            // The closing edge: its length only (see the module docs).
            let curn = ctx.imul(&cur, &nreg);
            let didx = ctx.iadd(&curn, &start);
            let d = ctx.ld_global_f32(gm, bufs.dist, &didx);
            len = ctx.fadd(&len, &d);
            for p in n..bufs.stride {
                let pr = ctx.splat_u32(p);
                let pos = ctx.iadd(&base, &pr);
                ctx.st_global_u32(gm, bufs.tours, &pos, &start);
            }
            ctx.st_global_f32(gm, bufs.lengths, &tid, &len);
        });
    }
}

/// ACS global update: the best-so-far ant's edges only.
pub struct AcsGlobalUpdateKernel {
    /// Device buffers.
    pub bufs: ColonyBuffers,
    /// Index of the best ant's tour row on the device.
    pub best_ant: u32,
    /// Exact best length (host-computed).
    pub best_len: f32,
    /// Global evaporation ρ.
    pub rho: f32,
}

impl AcsGlobalUpdateKernel {
    /// One thread per tour edge of the single best ant.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.bufs.n.div_ceil(128), 128).regs(12)
    }
}

impl Kernel for AcsGlobalUpdateKernel {
    fn name(&self) -> &'static str {
        "acs_global_update"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let s = ctx.global_thread_idx();
        let limit = ctx.splat_u32(n);
        let in_range = ctx.ult(&s, &limit);
        ctx.if_then(gm, &in_range, |ctx, gm| {
            let base = ctx.splat_u32(self.best_ant * self.bufs.stride);
            let i0 = ctx.iadd(&base, &s);
            let one = ctx.splat_u32(1);
            let i1 = ctx.iadd(&i0, &one);
            let c0 = ctx.ld_global_u32(gm, self.bufs.tours, &i0);
            let c1 = ctx.ld_global_u32(gm, self.bufs.tours, &i1);
            let nreg = ctx.splat_u32(n);
            let keep = ctx.splat_f32(1.0 - self.rho);
            let dep = ctx.splat_f32(self.rho / self.best_len);
            for (a, b) in [(&c0, &c1), (&c1, &c0)] {
                let ra = ctx.imul(a, &nreg);
                let idx = ctx.iadd(&ra, b);
                let t = ctx.ld_global_f32(gm, self.bufs.tau, &idx);
                let out = ctx.fma(&t, &keep, &dep);
                ctx.st_global_f32(gm, self.bufs.tau, &idx, &out);
            }
        });
    }
}

/// Full ACS colony on the simulated GPU.
pub struct GpuAntColonySystem<'a> {
    inst: &'a TspInstance,
    params: AcoParams,
    acs: AcsParams,
    dev: DeviceSpec,
    gm: GlobalMem,
    bufs: ColonyBuffers,
    tau0: f32,
    iteration: u64,
    best: Option<(Tour, u64)>,
    /// Best length found in the most recent iteration (`u64::MAX` before
    /// the first) — the iteration-best stream for lifecycle observers.
    last_iter_best: u64,
    threads: ExecThreads,
    ls: GpuLocalSearch,
}

impl<'a> GpuAntColonySystem<'a> {
    /// Allocate an ACS colony (default 10 ants, per the book) on `dev`.
    pub fn new(inst: &'a TspInstance, params: AcoParams, acs: AcsParams, dev: DeviceSpec) -> Self {
        let nn = aco_tsp::NearestNeighborLists::build(inst.matrix(), params.nn_size)
            .expect("instance has >= 2 cities");
        let c_nn = aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
        Self::with_artifacts(inst, params, acs, dev, &nn, c_nn)
    }

    /// Allocate an ACS colony reusing precomputed host artifacts (shared
    /// NN lists and greedy-tour length); see `AntSystem::with_artifacts`.
    pub fn with_artifacts(
        inst: &'a TspInstance,
        params: AcoParams,
        acs: AcsParams,
        dev: DeviceSpec,
        nn_lists: &aco_tsp::NearestNeighborLists,
        c_nn: u64,
    ) -> Self {
        let mut params = params;
        if params.num_ants.is_none() {
            params.num_ants = Some(10);
        }
        let mut gm = GlobalMem::new();
        let bufs = ColonyBuffers::allocate_with_artifacts(&mut gm, inst, &params, nn_lists, c_nn);
        // ACS initialisation: tau0 = 1/(n C_nn); eta^beta table in `choice`.
        let tau0 = 1.0 / (inst.n() as f32 * c_nn as f32);
        gm.f32_mut(bufs.tau).fill(tau0);
        let eta_kernel = ChoiceKernel { bufs, alpha: 0.0, beta: params.beta };
        launch(&dev, &eta_kernel.config(), &eta_kernel, &mut gm, SimMode::Full)
            .expect("choice kernel fits any device");
        GpuAntColonySystem {
            inst,
            params,
            acs,
            dev,
            gm,
            bufs,
            tau0,
            iteration: 0,
            best: None,
            last_iter_best: u64::MAX,
            threads: ExecThreads::default(),
            ls: GpuLocalSearch::new(nn_lists),
        }
    }

    /// Configure the per-iteration local search (see
    /// [`super::GpuAntSystem::set_local_search`]).
    pub fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        self.ls.configure(&mut self.gm, self.bufs, ls, scope);
    }

    /// Total tour-length reduction attributable to local search so far.
    pub fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    /// Execute the simulator's blocks across up to `threads` host threads
    /// (a device profile's exec-thread budget). Functional results,
    /// counters and modeled times are bit-identical for every value — see
    /// [`aco_simt::launch_threads`] — so this only trades host cores for
    /// wall clock.
    pub fn set_exec_threads(&mut self, threads: usize) {
        self.threads.budget = threads.max(1);
    }

    /// Attach the engine's idle-worker donation counter (see
    /// [`super::GpuAntSystem::set_thread_donor`]); results stay
    /// bit-identical at any thread count, so donation only trades
    /// wall-clock.
    pub fn set_thread_donor(&mut self, donor: Arc<AtomicUsize>) {
        self.threads.donor = Some(donor);
    }

    /// Best solution so far (exact length).
    pub fn best(&self) -> Option<(&Tour, u64)> {
        self.best.as_ref().map(|(t, l)| (t, *l))
    }

    /// `tau0` in use.
    pub fn tau0(&self) -> f32 {
        self.tau0
    }

    /// Device pheromone matrix (host view, for tests).
    pub fn tau(&self) -> &[f32] {
        self.gm.f32(self.bufs.tau)
    }

    /// One ACS iteration; returns `(best_so_far, tour_ms, update_ms,
    /// ls_ms)` where `ls_ms` is the modeled time of the local-search
    /// kernel family (0 without one).
    pub fn iterate(&mut self) -> Result<AcsIterReport, SimtError> {
        self.iterate_dynamics(None).map(|(rep, _)| rep)
    }

    /// [`iterate`](Self::iterate), additionally measuring search dynamics
    /// when a config is supplied. The trail is read back after the global
    /// update kernel, so entropy/λ-branching see the iteration-boundary
    /// state; the O(n²) scans run only when `dynamics` is `Some`.
    pub fn iterate_dynamics(
        &mut self,
        dynamics: Option<&aco_obs::DynamicsConfig>,
    ) -> Result<(AcsIterReport, Option<aco_obs::RawDynamics>), SimtError> {
        self.bufs.clear_visited(&mut self.gm);
        let tk = AcsTourKernel {
            bufs: self.bufs,
            q0: self.acs.q0 as f32,
            xi: self.acs.xi as f32,
            tau0: self.tau0,
            seed: self.params.seed,
            iteration: self.iteration,
        };
        let threads = self.threads.current();
        let rt =
            launch_threads(&self.dev, &tk.config(), &tk, &mut self.gm, SimMode::Full, threads)?;

        // Host-exact best tracking over the colony, with the configured
        // local search applied before the best-so-far decision (and
        // therefore before the global update deposits).
        let n = self.bufs.n as usize;
        let mut tours: Vec<Tour> = self
            .bufs
            .read_tours(&self.gm)
            .into_iter()
            .map(|t| Tour::new(t[..n].to_vec()).expect("device tours are permutations"))
            .collect();
        let mut lens: Vec<u64> = tours.iter().map(|t| t.length(self.inst.matrix())).collect();
        let threads = self.threads.current();
        let ls_ms = self.ls.run(
            &self.dev,
            &mut self.gm,
            self.bufs,
            self.inst,
            threads,
            &mut tours,
            &mut lens,
        )?;
        let best_ant = super::first_min(&lens) as u32;
        let best_this_iter = lens[best_ant as usize];
        if self.best.as_ref().is_none_or(|&(_, b)| best_this_iter < b) {
            self.best = Some((tours[best_ant as usize].clone(), best_this_iter));
        }
        self.last_iter_best = best_this_iter;

        // Global update uses the best-so-far tour; if it came from an
        // earlier iteration, refresh its row on the device.
        let (best_tour, best_len) = self.best.as_ref().expect("at least one ant ran").clone();
        self.bufs.write_tour(&mut self.gm, best_ant as usize, &best_tour, best_len);
        let uk = AcsGlobalUpdateKernel {
            bufs: self.bufs,
            best_ant,
            best_len: best_len as f32,
            rho: self.params.rho,
        };
        let threads = self.threads.current();
        let ru =
            launch_threads(&self.dev, &uk.config(), &uk, &mut self.gm, SimMode::Full, threads)?;

        self.iteration += 1;
        let raw = dynamics.map(|cfg| {
            let tau = &self.gm.f32(self.bufs.tau)[..n * n];
            aco_obs::dynamics::compute_raw(cfg, &lens, tau, n)
        });
        Ok(((best_len, rt.time.total_ms, ru.time.total_ms, ls_ms), raw))
    }

    /// Run `iters` iterations; returns the best length.
    pub fn run(&mut self, iters: usize) -> Result<u64, SimtError> {
        let mut best = u64::MAX;
        for _ in 0..iters {
            best = self.iterate()?.0;
        }
        Ok(best)
    }

    /// Best length found in the most recent iteration (`u64::MAX` before
    /// the first).
    pub fn last_iter_best(&self) -> u64 {
        self.last_iter_best
    }
}

/// The colony under [`crate::lifecycle::drive`], priced by the
/// simulator's modeled kernel times.
impl Colony for GpuAntColonySystem<'_> {
    fn step(&mut self, _k: u64, ctx: &SolveCtx) -> Result<Step, SimtError> {
        let ((best_so_far, tour_ms, update_ms, ls_ms), raw_dynamics) =
            self.iterate_dynamics(ctx.dynamics())?;
        Ok(Step {
            iter_best: self.last_iter_best,
            best_so_far,
            raw_dynamics,
            phase_ms: PhaseMs { construction: tour_ms, local_search: ls_ms, pheromone: update_ms },
        })
    }

    fn best(&self) -> Option<(&Tour, u64)> {
        GpuAntColonySystem::best(self)
    }

    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope) {
        GpuAntColonySystem::set_local_search(self, ls, scope);
    }

    fn local_search_improvement(&self) -> u64 {
        self.ls.improvement
    }

    fn set_exec_threads(&mut self, threads: usize) {
        GpuAntColonySystem::set_exec_threads(self, threads);
    }

    fn set_thread_donor(&mut self, donor: Arc<AtomicUsize>) {
        GpuAntColonySystem::set_thread_donor(self, donor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_tsp::generator::uniform_random;

    #[test]
    fn gpu_acs_builds_valid_improving_tours() {
        let inst = uniform_random("gacs", 40, 800.0, 3);
        let mut acs = GpuAntColonySystem::new(
            &inst,
            AcoParams::default().nn(10).seed(9),
            AcsParams::default(),
            DeviceSpec::tesla_m2050(),
        );
        let (first, tour_ms, update_ms, ls_ms) = acs.iterate().expect("valid launch");
        assert!(tour_ms > 0.0 && update_ms > 0.0);
        assert_eq!(ls_ms, 0.0, "no local search configured");
        let last = acs.run(15).expect("valid launch");
        assert!(last <= first);
        let (t, l) = acs.best().expect("ran");
        assert!(t.is_valid());
        assert_eq!(l, t.length(inst.matrix()));
    }

    #[test]
    fn local_update_keeps_tau_at_or_above_tau0() {
        let inst = uniform_random("gacs2", 30, 600.0, 5);
        let mut acs = GpuAntColonySystem::new(
            &inst,
            AcoParams::default().nn(8).seed(2),
            AcsParams::default(),
            DeviceSpec::tesla_c1060(),
        );
        acs.run(5).expect("valid launch");
        let tau0 = acs.tau0();
        let lo = tau0 * (1.0 - 1e-4);
        assert!(
            acs.tau().iter().all(|&t| t >= lo),
            "local rule is a convex combination with tau0; tau must not sink below it"
        );
    }

    #[test]
    fn acs_update_is_much_cheaper_than_as_full_matrix_update() {
        // ACS deposits on one tour; AS touches all n^2 cells — the GPU cost
        // gap should be large even on a small instance.
        let inst = uniform_random("gacs3", 64, 900.0, 7);
        let mut acs = GpuAntColonySystem::new(
            &inst,
            AcoParams::default().nn(10).seed(4),
            AcsParams::default(),
            DeviceSpec::tesla_m2050(),
        );
        let (_, _, acs_update_ms, _) = acs.iterate().expect("valid launch");

        let mut gm = GlobalMem::new();
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &AcoParams::default().nn(10));
        let ev = super::super::pheromone::EvaporationKernel { bufs, rho: 0.5 };
        let r = launch(&DeviceSpec::tesla_m2050(), &ev.config(), &ev, &mut gm, SimMode::Full)
            .expect("valid launch");
        // Just the AS evaporation pass already rivals the whole ACS update.
        assert!(
            acs_update_ms < r.time.total_ms * 4.0,
            "ACS update {acs_update_ms} should be of the order of a single evaporation {}",
            r.time.total_ms
        );
    }

    #[test]
    fn gpu_acs_quality_tracks_cpu_acs() {
        let inst = uniform_random("gacs4", 45, 800.0, 11);
        let mut gpu = GpuAntColonySystem::new(
            &inst,
            AcoParams::default().nn(12).seed(3),
            AcsParams::default(),
            DeviceSpec::tesla_m2050(),
        );
        let gpu_best = gpu.run(20).expect("valid launch") as f64;
        let mut cpu = crate::cpu::acs::AntColonySystem::new(
            &inst,
            AcoParams::default().nn(12).seed(3),
            AcsParams::default(),
        );
        let cpu_best = cpu.run(20) as f64;
        let gap = ((gpu_best - cpu_best) / cpu_best).abs();
        assert!(gap < 0.15, "GPU ACS {gpu_best} vs CPU ACS {cpu_best}");
    }
}

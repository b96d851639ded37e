//! Task-based tour construction (Table II, versions 1–6).
//!
//! One CUDA thread per ant — the "traditional" approach the paper
//! critiques. The kernel is parameterised so each Table II row is a
//! configuration of the same code path:
//!
//! | row | configuration |
//! |-----|----------------|
//! | 1   | recompute `tau^alpha * eta^beta` per step, CURAND-style RNG, tabu in global memory |
//! | 2   | + precomputed choice table (the Choice kernel) |
//! | 3   | + device-function LCG instead of CURAND |
//! | 4   | + nearest-neighbour candidate list |
//! | 5   | + tabu list in shared memory (per-city ints when they fit, bit-packed otherwise — the paper's C1060 caveat) |
//! | 6   | + choice loads through the texture cache |
//!
//! The structure matches ACOTSP's construction loop exactly: probability
//! pass, roulette scan (a data-dependent loop — the warp divergence the
//! paper blames), and the best-choice fallback when a candidate list is
//! exhausted.
//!
//! **What is charged in a lane pass and what runs for real.** The kernel
//! is modeled as the op-by-op CUDA it stands for, but its branch-free
//! loops run as lane passes ([`BlockCtx::lane_pass`]): each body is
//! written once, its arithmetic through an [`Alu`] and each per-lane `if`
//! as the selects the CUDA code executes, and [`aco_simt::lane_pass!`]
//! charges the tally counted from that body; only the loads and stores
//! run, one instruction at a time, through the memory models. They are:
//!
//! - the full rule's probability pass (rows 1–3), with row 1's inline
//!   `tau^alpha * eta^beta` (and its double-precision `pow` surcharge,
//!   an explicit [`Alu::charge`]);
//! - the candidate rule's candidate loop (rows 4–6), its branch-free
//!   roulette and the best-probability pick after a rounding shortfall:
//!   the roulette and the pick are per-lane functions over the block's
//!   `Candidates`, which the GPU ACS tour kernel ([`crate::gpu::acs`])
//!   calls in its own pass, its roulette seeded with its exploitation
//!   pick instead of candidate 0;
//! - the all-city argmax fallback;
//! - every tabu test and mark, in all three layouts, and the zeroing of a
//!   shared tabu list.
//!
//! The divergent roulette scan of rows 1–3 (the cost the paper models)
//! is a loop pass ([`aco_simt::loop_pass!`]): each trip charges its test
//! over the warps still scanning and its step over the warps that go on,
//! each counted from its code, and runs its `prob` load; the lanes'
//! divergence is counted from the looping mask trip by trip. These stay
//! real ops: the branches into the fallbacks, the draws, the start city,
//! and each step's tour store, distance load and length sum.
//! `tests/lane_pass_oracle.rs` pins every counter, the modeled time, the
//! tours and the lengths by fingerprints recorded against the op-by-op
//! kernel.

use aco_simt::alu::Memo;
use aco_simt::prelude::*;
use aco_simt::rng::PmRng;
use aco_simt::{lane_pass, loop_pass};

use crate::gpu::buffers::ColonyBuffers;
use crate::gpu::choice::ETA_ZERO_DIST;

/// RNG source for the construction kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RngKind {
    /// Library-style generator with 48-byte state in global memory.
    CurandLike,
    /// Park–Miller LCG in registers (the sequential code's generator).
    DeviceLcg,
}

/// Where the tabu list lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TabuPlacement {
    /// `m x n` flags in global memory.
    Global,
    /// Per-block shared memory; ints when they fit, bits otherwise.
    Shared,
}

/// Configuration of the task kernel (one Table II row).
#[derive(Debug, Clone, Copy)]
pub struct TaskOpts {
    /// Load `choice_info` instead of recomputing `tau^a * eta^b` per step.
    pub use_choice_table: bool,
    /// RNG source.
    pub rng: RngKind,
    /// Restrict the probabilistic choice to the candidate list.
    pub use_nn_list: bool,
    /// Tabu-list placement.
    pub tabu: TabuPlacement,
    /// Route read-only choice loads through the texture cache.
    pub texture: bool,
    /// Ants per thread block.
    pub block: u32,
}

/// How the shared tabu list is actually laid out on a given device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TabuLayout {
    Global,
    /// One `u32` per city per ant in shared memory.
    SharedInt,
    /// Bit-packed: `ceil(n/32)` words per ant (paper: "32-bit registers
    /// may be used on a bitwise basis"; extra index arithmetic per access).
    SharedBits,
}

/// The task-parallel construction kernel.
pub struct TaskTourKernel {
    /// Device buffers.
    pub bufs: ColonyBuffers,
    /// Row configuration.
    pub opts: TaskOpts,
    /// Pheromone weight (only used when recomputing inline).
    pub alpha: f32,
    /// Heuristic weight.
    pub beta: f32,
    /// Colony seed.
    pub seed: u64,
    /// Iteration number (decorrelates per-iteration streams).
    pub iteration: u64,
}

#[derive(Clone, Copy)]
enum TabuState {
    Global,
    SharedInt(ShPtr<u32>),
    SharedBits(ShPtr<u32>),
}

/// One block's ants: where their tabu lists live, their global and
/// in-block thread indices, and the tallies of their pass sites.
struct Ants {
    tabu: TabuState,
    tid_global: Reg<u32>,
    tid_local: Reg<u32>,
    tallies: Tallies,
}

/// Each per-step pass site's tally, derived on its first call in the
/// block: every call of a site issues the same instructions.
#[derive(Default)]
struct Tallies {
    mark: Memo<Tally>,
    argmax: Memo<Tally>,
    prob: Memo<Tally>,
    scan: Memo<(Tally, Tally)>,
    guard: Memo<Tally>,
    cand: Memo<Tally>,
    roulette: Memo<Tally>,
    pick: Memo<Tally>,
}

/// The candidate step's per-lane values, candidate-major (slot
/// `c * lanes + lane`, `lanes` the block's lanes and the spare lane a
/// tally is derived on): each candidate's city and probability (value,
/// in GPU ACS). Rows 4–6 and GPU ACS fill it in their own candidate
/// loops and share the two per-lane picks over it.
pub(crate) struct Candidates {
    lanes: usize,
    pub(crate) city: Vec<u32>,
    pub(crate) p: Vec<f32>,
}

impl Candidates {
    /// Room for `nn` candidates of every lane of a `block_dim`-lane block.
    pub(crate) fn new(block_dim: u32, nn: u32) -> Self {
        let lanes = block_dim as usize + 1;
        let slots = nn as usize * lanes;
        Candidates { lanes, city: vec![0; slots], p: vec![0.0; slots] }
    }

    /// The slots of candidate `c`, one per lane.
    pub(crate) fn slots(&self, c: u32) -> std::ops::Range<usize> {
        c as usize * self.lanes..(c as usize + 1) * self.lanes
    }

    /// Lane `l`'s candidates in order: each one's probability and city.
    #[inline(always)]
    fn lane(&self, l: usize) -> impl Iterator<Item = (f32, u32)> + '_ {
        let slot = move |c| c * self.lanes + l;
        (0..self.p.len() / self.lanes).map(move |c| (self.p[slot(c)], self.city[slot(c)]))
    }

    /// Lane `l`'s branch-free roulette: the first candidate whose running
    /// sum crosses `target` and whose probability is positive, and whether
    /// one did; `first` when none does. A splat, then per candidate the
    /// running sum, two compares, the predicate bookkeeping and a select.
    #[inline(always)]
    pub(crate) fn roulette(&self, a: impl Alu, l: usize, target: f32, first: u32) -> (u32, bool) {
        let (mut cum, mut chosen, mut done) = (a.mov(0.0f32), first, false);
        for (pc, cc) in self.lane(l) {
            cum = a.fadd(cum, pc);
            let newly = a.fge(cum, target) & a.fgt(pc, 0.0) & !done;
            a.charge(Op::IAlu, 2);
            chosen = a.select(newly, cc, chosen);
            done |= newly;
        }
        (chosen, done)
    }

    /// Lane `l`'s best-probability candidate, the first on ties: a splat,
    /// then per candidate a compare and two selects.
    #[inline(always)]
    pub(crate) fn best(&self, a: impl Alu, l: usize) -> u32 {
        let (mut bv, mut bc) = (a.mov(-1.0f32), self.city[l]);
        for (pc, cc) in self.lane(l) {
            let better = a.fgt(pc, bv);
            (bv, bc) = (a.select(better, pc, bv), a.select(better, cc, bc));
        }
        bc
    }
}

/// Allocate a shared tabu list of `words` words per thread and zero it:
/// `thread_idx`, a splat of `words`, the row `imul` and a zero splat, then
/// per word a splat, an `iadd` and the store.
fn zeroed_tabu(ctx: &mut BlockCtx, block: u32, words: u32) -> ShPtr<u32> {
    let arr = ctx.shared_alloc_u32((block * words) as usize);
    lane_pass!(ctx, |pass| {
        let a = pass.alu();
        let (wreg, zero) = (a.mov(words), a.mov(0));
        let row = pass.reg(|l| a.imul(a.mov(l as u32), wreg));
        pass.repeat(words, |pass, w| {
            let w = a.mov(w);
            pass.sh_st(arr, |l| a.iadd(row.lane(l), w), |_| zero);
        });
    });
    arr
}

impl TaskTourKernel {
    fn layout(&self, dev: &DeviceSpec) -> TabuLayout {
        if self.opts.tabu == TabuPlacement::Global {
            return TabuLayout::Global;
        }
        let n = self.bufs.n;
        let block = self.opts.block;
        if block * n * 4 <= dev.shared_mem_per_sm {
            TabuLayout::SharedInt
        } else if block * n.div_ceil(32) * 4 <= dev.shared_mem_per_sm {
            TabuLayout::SharedBits
        } else {
            TabuLayout::Global
        }
    }

    /// Shared bytes the block will allocate on `dev`.
    fn shared_bytes(&self, dev: &DeviceSpec) -> u32 {
        match self.layout(dev) {
            TabuLayout::Global => 0,
            TabuLayout::SharedInt => self.opts.block * self.bufs.n * 4,
            TabuLayout::SharedBits => self.opts.block * self.bufs.n.div_ceil(32) * 4,
        }
    }

    /// Launch geometry for this row on `dev`.
    pub fn config(&self, dev: &DeviceSpec) -> LaunchConfig {
        LaunchConfig::new(self.bufs.m.div_ceil(self.opts.block), self.opts.block)
            .regs(24)
            .shared(self.shared_bytes(dev))
    }

    fn draw(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, lcg: &mut Reg<u32>) -> Reg<f32> {
        match self.opts.rng {
            RngKind::DeviceLcg => ctx.lcg_next_f32(lcg),
            RngKind::CurandLike => ctx.curand_next_f32(gm, self.bufs.curand),
        }
    }

    /// `choice_info[curn + col(lane)]` into `out`'s active lanes, either
    /// loaded (optionally via texture) or recomputed from `tau` and `dist`
    /// (baseline row 1, which holds `tau` in `out` between the loads).
    fn choice_value<P: Pass>(
        &self,
        pass: &mut P,
        gm: &GlobalMem,
        curn: &Reg<u32>,
        col: impl Fn(usize) -> u32,
        out: &mut Reg<f32>,
    ) {
        let (bufs, a) = (&self.bufs, pass.alu());
        let cidx = |l| a.iadd(curn.lane(l), col(l));
        if self.opts.use_choice_table {
            pass.ld_f32(gm, bufs.choice, self.opts.texture, cidx, |l, v| out.set_lane(l, v));
            return;
        }
        pass.ld_f32(gm, bufs.tau, false, cidx, |l, tau| out.set_lane(l, tau));
        // The distance load reuses the index register.
        let reuse = |l| curn.lane(l).wrapping_add(col(l));
        pass.ld_f32(gm, bufs.dist, false, reuse, |l, d| {
            let eta = a.select(a.fle(d, a.mov(0.0)), a.mov(ETA_ZERO_DIST), a.fdiv(a.mov(1.0), d));
            // The baseline port calls libm `pow()` on doubles per step (it
            // reuses the sequential code's arithmetic); GT200 runs double
            // precision at 1/8 rate, so each call costs far more than the
            // single-precision `__powf` of the Choice kernel.
            a.charge(Op::Sfu, 14);
            let (ta, eb) = (a.fpow(out.lane(l), a.mov(self.alpha)), a.fpow(eta, a.mov(self.beta)));
            out.set_lane(l, a.fmul(ta, eb));
        });
    }

    /// `each(lane, 1.0)` for an unvisited `city(lane)`, `0.0` for a
    /// visited one: the `n` splat, the index math (the bit-packed layout
    /// also splats its constants and shifts out its bit), the load and
    /// `1.0 - (float)flag`.
    fn tabu_check<P: Pass>(
        &self,
        pass: &mut P,
        gm: &GlobalMem,
        ants: &Ants,
        city: impl Fn(usize) -> u32,
        mut each: impl FnMut(usize, f32),
    ) {
        let a = pass.alu();
        let n = a.mov(self.bufs.n);
        let unvisited = |flag: u32| a.fsub(a.mov(1.0), a.u2f(flag));
        match ants.tabu {
            TabuState::Global => pass.ld_global_u32(
                gm,
                self.bufs.visited,
                |l| a.iadd(a.imul(ants.tid_global.lane(l), n), city(l)),
                |l, flag| each(l, unvisited(flag)),
            ),
            TabuState::SharedInt(arr) => pass.sh_ld(
                arr,
                |l| a.iadd(a.imul(ants.tid_local.lane(l), n), city(l)),
                |l, flag| each(l, unvisited(flag)),
            ),
            TabuState::SharedBits(arr) => {
                let (words, five) = (a.mov(self.bufs.n.div_ceil(32)), a.mov(5));
                let word = |l| a.iadd(a.imul(ants.tid_local.lane(l), words), a.ishr(city(l), five));
                pass.sh_ld(arr, word, |l, w| {
                    let bit = a.iand(city(l), a.mov(31));
                    each(l, unvisited(a.iand(a.ishr(w, bit), a.mov(1))))
                })
            }
        }
    }

    /// Mark `city` visited for every active ant, as one lane pass: the
    /// `n` splat, the index math and the value (the bit-packed layout
    /// also splats its constants, loads the word and sets its bit).
    fn tabu_set(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, ants: &Ants, city: &Reg<u32>) {
        let n = self.bufs.n;
        lane_pass!(ctx, &ants.tallies.mark, |pass| {
            let a = pass.alu();
            let nreg = a.mov(n);
            match ants.tabu {
                TabuState::Global => pass.st_global_u32(
                    gm,
                    self.bufs.visited,
                    |l| a.iadd(a.imul(ants.tid_global.lane(l), nreg), city.lane(l)),
                    |_| a.mov(1),
                ),
                TabuState::SharedInt(arr) => pass.sh_st(
                    arr,
                    |l| a.iadd(a.imul(ants.tid_local.lane(l), nreg), city.lane(l)),
                    |_| a.mov(1),
                ),
                TabuState::SharedBits(arr) => {
                    let (words, five) = (a.mov(n.div_ceil(32)), a.mov(5));
                    let (tid, mut w) = (&ants.tid_local, pass.reg(|_| 0u32));
                    let word = |l| a.iadd(a.imul(tid.lane(l), words), a.ishr(city.lane(l), five));
                    pass.sh_ld(arr, word, |l, x| w.set_lane(l, x));
                    // The store reuses the index register.
                    let reuse = |l| {
                        tid.lane(l).wrapping_mul(n.div_ceil(32)).wrapping_add(city.lane(l) >> 5)
                    };
                    pass.sh_st(arr, reuse, |l| {
                        let bit = a.ishl(a.mov(1), a.iand(city.lane(l), a.mov(31)));
                        a.ior(w.lane(l), bit)
                    });
                }
            }
        });
    }

    /// Deterministic best unvisited city by choice value (the fallback of
    /// the candidate-list rule, and the rounding guard of the full rule):
    /// per city a splat, the choice value, the tabu test, the score
    /// `(choice + 1) * unvisited`, a compare and two selects.
    fn argmax_unvisited(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
    ) -> Reg<u32> {
        let n = self.bufs.n;
        lane_pass!(ctx, &ants.tallies.argmax, |pass| {
            let a = pass.alu();
            let (nreg, one) = (a.mov(n), a.mov(1.0f32));
            let curn = pass.reg(|l| a.imul(cur.lane(l), nreg));
            let mut raw = pass.reg(|_| 0.0f32);
            let mut best_v = pass.reg(|_| a.mov(-1.0f32));
            let mut best_j = pass.reg(|_| a.mov(0u32));
            pass.repeat(n, |pass, j| {
                let j = a.mov(j);
                self.choice_value(pass, gm, &curn, |_| j, &mut raw);
                // score = (choice + 1) * unvis: any unvisited city strictly
                // beats every visited one even when choice values reach 0.
                self.tabu_check(
                    pass,
                    gm,
                    ants,
                    |_| j,
                    |l, unvis| {
                        let v = a.fmul(a.fadd(raw.lane(l), one), unvis);
                        let better = a.fgt(v, best_v.lane(l));
                        best_v.set_lane(l, a.select(better, v, best_v.lane(l)));
                        best_j.set_lane(l, a.select(better, j, best_j.lane(l)));
                    },
                );
            });
            best_j
        })
    }

    /// Full random-proportional step (rows 1–3): probability pass into the
    /// global scratch array, then the divergent roulette scan.
    fn select_full(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
        lcg: &mut Reg<u32>,
    ) -> Reg<u32> {
        let n = self.bufs.n;
        // The probability pass: per city its splat, choice value, tabu
        // test and product, stored, and the running sum.
        let (prob_base, sum) = lane_pass!(ctx, &ants.tallies.prob, |pass| {
            let a = pass.alu();
            let nreg = a.mov(n);
            let curn = pass.reg(|l| a.imul(cur.lane(l), nreg));
            let prob_base = pass.reg(|l| a.imul(ants.tid_global.lane(l), nreg));
            let mut p = pass.reg(|_| 0.0f32);
            let mut sum = pass.reg(|_| a.mov(0.0f32));
            pass.repeat(n, |pass, j| {
                let j = a.mov(j);
                self.choice_value(pass, gm, &curn, |_| j, &mut p);
                let tabu = |l, unvis| p.set_lane(l, a.fmul(p.lane(l), unvis));
                self.tabu_check(pass, gm, ants, |_| j, tabu);
                let pidx = |l| a.iadd(prob_base.lane(l), j);
                pass.st_global_f32(gm, self.bufs.prob, pidx, |l| {
                    sum.set_lane(l, a.fadd(sum.lane(l), p.lane(l)));
                    p.lane(l)
                });
            });
            (prob_base, sum)
        });

        let r = self.draw(ctx, gm, lcg);
        let target = ctx.fmul(&r, &sum);

        // Roulette scan: data-dependent trip count per lane = warp
        // divergence ("this operation presents many warp divergences,
        // leading to serialisation", Section IV-A). `while (cum < target
        // && j < n - 1) { j++; cum += prob[base + j]; }` as a loop pass;
        // the splats of 1 and n - 1 are charged before it.
        let mut scan = (ctx.splat_u32(0), ctx.ld_global_f32(gm, self.bufs.prob, &prob_base));
        ctx.charge(Op::Mov, 2);
        loop_pass!(
            ctx,
            &ants.tallies.scan,
            scan,
            |a, (j, cum), l| a.flt(cum.lane(l), target.lane(l)) & a.ult(j.lane(l), n - 1),
            |pass, (j, cum)| {
                let a = pass.alu();
                let next = |l| {
                    j.set_lane(l, a.mov(a.iadd(j.lane(l), 1)));
                    a.iadd(prob_base.lane(l), j.lane(l))
                };
                pass.ld_f32(gm, self.bufs.prob, false, next, |l, p| {
                    cum.set_lane(l, a.mov(a.fadd(cum.lane(l), p)))
                });
            },
        );
        let (j, _) = scan;

        // Rounding guard: a lane can land on a visited (zero-probability)
        // city; fall back to the deterministic best.
        let unvis = lane_pass!(ctx, &ants.tallies.guard, |pass| {
            let mut unvis = pass.reg(|_| 0.0f32);
            self.tabu_check(pass, gm, ants, |l| j.lane(l), |l, u| unvis.set_lane(l, u));
            unvis
        });
        let zero = ctx.splat_f32(0.0);
        let bad = ctx.fle(&unvis, &zero);
        let mut next = j;
        ctx.if_then(gm, &bad, |ctx, gm| {
            let fixed = self.argmax_unvisited(ctx, gm, ants, cur);
            ctx.assign_u32(&mut next, &fixed);
        });
        next
    }

    /// Candidate-list step (rows 4–6): branch-free roulette over the `nn`
    /// candidates, divergent full-scan fallback when all are visited.
    fn select_nn(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
        lcg: &mut Reg<u32>,
        cands: &mut Candidates,
    ) -> Reg<u32> {
        let (n, nn) = (self.bufs.n, self.bufs.nn);
        // Per candidate: a splat, the list index add, the list load, the
        // choice value, the tabu test, the product and the running sum.
        let sum = lane_pass!(ctx, &ants.tallies.cand, |pass| {
            let a = pass.alu();
            let (nreg, nnreg) = (a.mov(n), a.mov(nn));
            let curn = pass.reg(|l| a.imul(cur.lane(l), nreg));
            let curnn = pass.reg(|l| a.imul(cur.lane(l), nnreg));
            let mut sum = pass.reg(|_| a.mov(0.0f32));
            let mut raw = pass.reg(|_| 0.0f32);
            pass.repeat(nn, |pass, c| {
                let slots = cands.slots(c);
                let c = a.mov(c);
                let city = &mut cands.city[slots.clone()];
                let lidx = |l| a.iadd(curnn.lane(l), c);
                pass.ld_global_u32(gm, self.bufs.nn_list, lidx, |l, x| city[l] = x);
                self.choice_value(pass, gm, &curn, |l| city[l], &mut raw);
                let p = &mut cands.p[slots];
                self.tabu_check(
                    pass,
                    gm,
                    ants,
                    |l| city[l],
                    |l, unvis| {
                        p[l] = a.fmul(raw.lane(l), unvis);
                        sum.set_lane(l, a.fadd(sum.lane(l), p[l]));
                    },
                );
            });
            sum
        });
        let cands = &*cands;

        let zero = ctx.splat_f32(0.0);
        let feasible = ctx.fgt(&sum, &zero);
        let mut next = ctx.splat_u32(0);
        ctx.branch(&feasible);
        ctx.with_mask(gm, &feasible, |ctx, gm| {
            let r = self.draw(ctx, gm, lcg);
            let target = ctx.fmul(&r, &sum);
            // The roulette from candidate 0.
            let (mut chosen, done) = lane_pass!(ctx, &ants.tallies.roulette, |pass| {
                let a = pass.alu();
                let mut done = pass.reg(|_| 0u32);
                let chosen = pass.reg(|l| {
                    let (chosen, done_l) = cands.roulette(a, l, target.lane(l), cands.city[l]);
                    done.set_lane(l, done_l as u32);
                    chosen
                });
                (chosen, done)
            });
            // Rounding shortfall: the best-probability candidate.
            let undone = Mask::from_fn(ctx.block_dim as usize, |l| done.lane(l) == 0);
            ctx.if_then(gm, &undone, |ctx, _| {
                let best = lane_pass!(ctx, &ants.tallies.pick, |pass| {
                    let a = pass.alu();
                    pass.reg(|l| cands.best(a, l))
                });
                ctx.assign_u32(&mut chosen, &best);
            });
            ctx.assign_u32(&mut next, &chosen);
        });
        let infeasible = feasible.not();
        ctx.with_mask(gm, &infeasible, |ctx, gm| {
            // All candidates visited: deterministic best over all
            // cities — the divergent fallback.
            let best = self.argmax_unvisited(ctx, gm, ants, cur);
            ctx.assign_u32(&mut next, &best);
        });
        next
    }
}

impl Kernel for TaskTourKernel {
    fn name(&self) -> &'static str {
        "tour_task"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let stride = self.bufs.stride;

        // Shared tabu allocation + zeroing (whole block participates).
        let tabu = match self.layout(ctx.device()) {
            TabuLayout::Global => TabuState::Global,
            TabuLayout::SharedInt => TabuState::SharedInt(zeroed_tabu(ctx, self.opts.block, n)),
            TabuLayout::SharedBits => {
                TabuState::SharedBits(zeroed_tabu(ctx, self.opts.block, n.div_ceil(32)))
            }
        };

        let tid_global = ctx.global_thread_idx();
        let tid_local = ctx.thread_idx();
        let ants = Ants { tabu, tid_global, tid_local, tallies: Tallies::default() };
        let m = ctx.splat_u32(self.bufs.m);
        let is_ant = ctx.ult(&ants.tid_global, &m);
        let nn = if self.opts.use_nn_list { self.bufs.nn } else { 0 };
        let mut cands = Candidates::new(ctx.block_dim, nn);

        ctx.if_then(gm, &is_ant, |ctx, gm| {
            let mut lcg = {
                let base = ctx.block_idx * ctx.block_dim;
                let seed = self.seed ^ self.iteration.wrapping_mul(0x9E37_79B9);
                ctx.reg_from_fn_u32(|lane| PmRng::thread_seed(seed, (base as usize + lane) as u64))
            };

            // Random start city.
            let r0 = self.draw(ctx, gm, &mut lcg);
            let nf = ctx.splat_f32(n as f32);
            let sf = ctx.fmul(&r0, &nf);
            let raw = ctx.f2u(&sf);
            let nm1 = ctx.splat_u32(n - 1);
            let start = ctx.imin(&raw, &nm1);

            let stride_reg = ctx.splat_u32(stride);
            let base = ctx.imul(&ants.tid_global, &stride_reg);
            ctx.st_global_u32(gm, self.bufs.tours, &base, &start);
            self.tabu_set(ctx, gm, &ants, &start);

            let mut cur = start.clone();
            let mut len = ctx.splat_f32(0.0);
            let nreg = ctx.splat_u32(n);

            for step in 1..n {
                let next = if self.opts.use_nn_list {
                    self.select_nn(ctx, gm, &ants, &cur, &mut lcg, &mut cands)
                } else {
                    self.select_full(ctx, gm, &ants, &cur, &mut lcg)
                };

                let sr = ctx.splat_u32(step);
                let pos = ctx.iadd(&base, &sr);
                ctx.st_global_u32(gm, self.bufs.tours, &pos, &next);
                self.tabu_set(ctx, gm, &ants, &next);

                let row = ctx.imul(&cur, &nreg);
                let didx = ctx.iadd(&row, &next);
                let d = ctx.ld_global_f32(gm, self.bufs.dist, &didx);
                len = ctx.fadd(&len, &d);
                ctx.assign_u32(&mut cur, &next);
            }

            // Closing edge back to the start.
            let row = ctx.imul(&cur, &nreg);
            let didx = ctx.iadd(&row, &start);
            let d = ctx.ld_global_f32(gm, self.bufs.dist, &didx);
            len = ctx.fadd(&len, &d);

            // Closing city + padding to the tile boundary (Section IV-B).
            for p in n..stride {
                let pr = ctx.splat_u32(p);
                let pos = ctx.iadd(&base, &pr);
                ctx.st_global_u32(gm, self.bufs.tours, &pos, &start);
            }

            ctx.st_global_f32(gm, self.bufs.lengths, &ants.tid_global, &len);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::choice::ChoiceKernel;
    use crate::params::AcoParams;
    use aco_tsp::generator::uniform_random;
    use aco_tsp::Tour;

    fn run_variant(
        opts: TaskOpts,
        n: usize,
        dev: &DeviceSpec,
    ) -> (GlobalMem, ColonyBuffers, LaunchResult) {
        let inst = uniform_random("task", n, 1000.0, 5);
        let mut gm = GlobalMem::new();
        let params = AcoParams::default().nn(12);
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &params);
        if opts.use_choice_table {
            let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
            launch(dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
        }
        bufs.clear_visited(&mut gm);
        let k = TaskTourKernel { bufs, opts, alpha: 1.0, beta: 2.0, seed: 42, iteration: 0 };
        let cfg = k.config(dev);
        let r = launch(dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        (gm, bufs, r)
    }

    fn assert_valid_tours(gm: &GlobalMem, bufs: &ColonyBuffers, inst_n: usize) {
        for (a, t) in bufs.read_tours(gm).into_iter().enumerate() {
            assert_eq!(t.len(), inst_n + 1);
            assert_eq!(t[0], t[inst_n], "ant {a}: tour must close on its start");
            let tour = Tour::new(t[..inst_n].to_vec()).unwrap_or_else(|e| {
                panic!("ant {a}: invalid tour: {e}");
            });
            assert!(tour.is_valid());
        }
    }

    #[test]
    fn baseline_builds_valid_tours() {
        let dev = DeviceSpec::tesla_c1060();
        let opts = TaskOpts {
            use_choice_table: false,
            rng: RngKind::CurandLike,
            use_nn_list: false,
            tabu: TabuPlacement::Global,
            texture: false,
            block: 128,
        };
        let (gm, bufs, r) = run_variant(opts, 40, &dev);
        assert_valid_tours(&gm, &bufs, 40);
        assert!(r.stats.rng_calls > 0.0);
        assert!(r.stats.divergent_branches > 0.0, "roulette scan must diverge");
    }

    #[test]
    fn nn_list_variant_builds_valid_tours_and_is_cheaper() {
        let dev = DeviceSpec::tesla_c1060();
        let full = TaskOpts {
            use_choice_table: true,
            rng: RngKind::DeviceLcg,
            use_nn_list: false,
            tabu: TabuPlacement::Global,
            texture: false,
            block: 128,
        };
        let nn = TaskOpts { use_nn_list: true, ..full };
        let (_, _, r_full) = run_variant(full, 48, &dev);
        let (gm, bufs, r_nn) = run_variant(nn, 48, &dev);
        assert_valid_tours(&gm, &bufs, 48);
        assert!(
            r_nn.time.total_ms < r_full.time.total_ms,
            "NN list must beat the full scan: {} vs {}",
            r_nn.time.total_ms,
            r_full.time.total_ms
        );
    }

    #[test]
    fn shared_tabu_places_ints_for_small_instances() {
        let dev = DeviceSpec::tesla_c1060();
        let opts = TaskOpts {
            use_choice_table: true,
            rng: RngKind::DeviceLcg,
            use_nn_list: true,
            tabu: TabuPlacement::Shared,
            texture: false,
            block: 32,
        };
        let k = TaskTourKernel {
            bufs: ColonyBuffers::allocate(
                &mut GlobalMem::new(),
                &uniform_random("x", 48, 100.0, 1),
                &AcoParams::default().nn(10),
            ),
            opts,
            alpha: 1.0,
            beta: 2.0,
            seed: 1,
            iteration: 0,
        };
        // 32 ants x 48 cities x 4 B = 6 KB <= 16 KB -> int layout.
        assert_eq!(k.layout(&dev), TabuLayout::SharedInt);
        // Bigger instance on the same device -> bit layout.
        let k2 = TaskTourKernel {
            bufs: ColonyBuffers::allocate(
                &mut GlobalMem::new(),
                &uniform_random("x", 300, 100.0, 2),
                &AcoParams::default().nn(10),
            ),
            ..k
        };
        assert_eq!(k2.layout(&dev), TabuLayout::SharedBits);
        // Fermi's 48 KB keeps ints longer.
        assert_eq!(k2.layout(&DeviceSpec::tesla_m2050()), TabuLayout::SharedInt);
    }

    #[test]
    fn shared_tabu_variant_builds_valid_tours() {
        let dev = DeviceSpec::tesla_c1060();
        let opts = TaskOpts {
            use_choice_table: true,
            rng: RngKind::DeviceLcg,
            use_nn_list: true,
            tabu: TabuPlacement::Shared,
            texture: true,
            block: 32,
        };
        let (gm, bufs, r) = run_variant(opts, 60, &dev);
        assert_valid_tours(&gm, &bufs, 60);
        assert!(r.stats.shared_accesses > 0.0);
        assert!(r.stats.tex_hits + r.stats.tex_misses > 0.0);
    }

    #[test]
    fn device_lcg_beats_curand_like() {
        let dev = DeviceSpec::tesla_c1060();
        let curand = TaskOpts {
            use_choice_table: true,
            rng: RngKind::CurandLike,
            use_nn_list: false,
            tabu: TabuPlacement::Global,
            texture: false,
            block: 128,
        };
        let lcg = TaskOpts { rng: RngKind::DeviceLcg, ..curand };
        let (_, _, r_curand) = run_variant(curand, 40, &dev);
        let (_, _, r_lcg) = run_variant(lcg, 40, &dev);
        assert!(
            r_lcg.time.total_ms < r_curand.time.total_ms,
            "device LCG must beat global-state RNG: {} vs {}",
            r_lcg.time.total_ms,
            r_curand.time.total_ms
        );
    }

    #[test]
    fn lengths_match_tours() {
        let dev = DeviceSpec::tesla_m2050();
        let opts = TaskOpts {
            use_choice_table: true,
            rng: RngKind::DeviceLcg,
            use_nn_list: true,
            tabu: TabuPlacement::Global,
            texture: false,
            block: 128,
        };
        let inst = uniform_random("task", 36, 1000.0, 9);
        let mut gm = GlobalMem::new();
        let params = AcoParams::default().nn(10);
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &params);
        let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
        launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
        bufs.clear_visited(&mut gm);
        let k = TaskTourKernel { bufs, opts, alpha: 1.0, beta: 2.0, seed: 3, iteration: 1 };
        let cfg = k.config(&dev);
        launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();

        let lengths = bufs.read_lengths(&gm);
        for (a, t) in bufs.read_tours(&gm).into_iter().enumerate() {
            let tour = Tour::new(t[..36].to_vec()).expect("valid");
            let exact = tour.length(inst.matrix()) as f32;
            let rel = (lengths[a] - exact).abs() / exact;
            assert!(rel < 1e-3, "ant {a}: device length {} vs exact {exact}", lengths[a]);
        }
    }
}

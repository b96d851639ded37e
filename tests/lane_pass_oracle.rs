//! Every kernel that charges a loop in closed form, against the
//! written-out form of that loop, kept here as the oracle.
//!
//! A lane pass ([`BlockCtx::lane_pass`]) charges a branch-free loop's
//! data-independent instructions as one declared tally and runs only its
//! loads and stores through the memory models; the argmax tree
//! ([`BlockCtx::sh_argmax_tree`]) charges its levels in closed form. Each
//! case below launches the kernel and its op-by-op form on fresh copies
//! of the same memory and compares, bit for bit, every `KernelStats`
//! field, every `KernelTime` field, the executed blocks and every buffer
//! the kernel writes, on both modeled devices, under full and sampled
//! execution and with the blocks spread over four host threads:
//!
//! - the task-parallel tour kernel (Table II rows 1–6): probability pass,
//!   candidate loop and roulette, argmax fallback, tabu tests and marks
//!   in all three tabu layouts, shared-tabu zeroing;
//! - the data-parallel tour kernel (rows 7–8): one pass per tile;
//! - the scatter-to-gather pheromone rows: one pass per staged tile;
//! - the argmax tree.
//!
//! The task rows' full grid is `#[ignore]`d for the release tier
//! (`cargo test --release --test lane_pass_oracle -- --include-ignored`);
//! the debug tier runs its n = 5 and n = 24 columns.

use aco_gpu::core::gpu::choice::{ChoiceKernel, ETA_ZERO_DIST};
use aco_gpu::core::gpu::pheromone::{ScatterGatherKernel, ScatterMode};
use aco_gpu::core::gpu::tour::{
    DataParallelTourKernel, RngKind, TabuPlacement, TaskTourKernel, TourStrategy,
};
use aco_gpu::core::gpu::{run_tour, ColonyBuffers, THETA};
use aco_gpu::core::AcoParams;
use aco_gpu::simt::prelude::*;
use aco_gpu::simt::rng::PmRng;
use aco_gpu::tsp;

// --- the harness -------------------------------------------------------------

/// How the launch executes its blocks.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Full,
    Sampled,
    FourThreads,
}

const EXECS: [Exec; 3] = [Exec::Full, Exec::Sampled, Exec::FourThreads];

fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()]
}

/// Every counter, modeled-time and block-count bit of one launch.
fn launch_bits(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &dyn Kernel,
    gm: &mut GlobalMem,
    exec: Exec,
) -> Vec<u64> {
    let (mode, threads) = match exec {
        Exec::Full => (SimMode::Full, 1),
        Exec::Sampled => (SimMode::SampleBlocks(2), 1),
        Exec::FourThreads => (SimMode::Full, 4),
    };
    let r = launch_threads(dev, cfg, kernel, gm, mode, threads).unwrap();
    // Destructured so a new counter cannot be left out silently.
    let KernelStats {
        warp_instructions,
        issue_cycles_per_sm,
        dram_bytes,
        ld_transactions,
        st_transactions,
        mem_warp_instructions,
        shared_accesses,
        bank_conflict_extra,
        atomic_ops,
        atomic_conflicts,
        divergent_branches,
        barriers,
        tex_hits,
        tex_misses,
        l1_hits,
        l1_misses,
        rng_calls,
    } = &r.stats;
    let KernelTime { compute_ms, memory_ms, latency_ms, overhead_ms, total_ms } = &r.time;
    let mut bits: Vec<u64> = issue_cycles_per_sm.iter().map(|c| c.to_bits()).collect();
    for v in [
        warp_instructions,
        dram_bytes,
        ld_transactions,
        st_transactions,
        mem_warp_instructions,
        shared_accesses,
        bank_conflict_extra,
        atomic_ops,
        atomic_conflicts,
        divergent_branches,
        barriers,
        tex_hits,
        tex_misses,
        l1_hits,
        l1_misses,
        rng_calls,
        compute_ms,
        memory_ms,
        latency_ms,
        overhead_ms,
        total_ms,
    ] {
        bits.push(v.to_bits());
    }
    bits.push(r.executed_blocks as u64);
    bits
}

/// Run the written-out form and the kernel itself through `run` (fresh
/// memory, the launch, then the launch bits and the written words) and
/// assert both agree.
fn assert_same(
    case: &str,
    forms: [&dyn Kernel; 2],
    run: impl Fn(&dyn Kernel) -> (Vec<u64>, Vec<u32>),
) {
    let [(oracle_bits, oracle_words), (bits, words)] = forms.map(run);
    assert_eq!(bits, oracle_bits, "{case}: counters and modeled time");
    assert_eq!(words, oracle_words, "{case}: memory");
}

fn f32_words(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// A colony's memory (choice table built, visited flags clear) and its
/// buffers.
fn colony(inst: &tsp::TspInstance, m: usize) -> (GlobalMem, ColonyBuffers) {
    let mut gm = GlobalMem::new();
    let params = AcoParams::default().nn((inst.n() / 2).clamp(1, 30)).ants(m).seed(13);
    let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
    let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
    launch(&DeviceSpec::tesla_m2050(), &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
    bufs.clear_visited(&mut gm);
    (gm, bufs)
}

/// Every colony buffer a tour kernel writes, as words.
fn tour_words(gm: &GlobalMem, bufs: ColonyBuffers) -> Vec<u32> {
    let mut words = gm.u32(bufs.tours).to_vec();
    words.extend(f32_words(gm.f32(bufs.lengths)));
    words.extend(f32_words(gm.f32(bufs.prob)));
    words.extend(gm.u32(bufs.visited));
    words.extend(gm.u32(bufs.curand));
    words
}

// --- Table II rows 1–6 ---------------------------------------------------------

/// The task-parallel construction kernel as it was written op by op.
struct WrittenOutTask(TaskTourKernel);

impl std::ops::Deref for WrittenOutTask {
    type Target = TaskTourKernel;
    fn deref(&self) -> &TaskTourKernel {
        &self.0
    }
}

enum TabuState {
    Global,
    SharedInt(ShPtr<u32>),
    SharedBits(ShPtr<u32>),
}

struct Ants {
    tabu: TabuState,
    tid_global: Reg<u32>,
    tid_local: Reg<u32>,
}

impl WrittenOutTask {
    fn draw(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, lcg: &mut Reg<u32>) -> Reg<f32> {
        match self.opts.rng {
            RngKind::DeviceLcg => ctx.lcg_next_f32(lcg),
            RngKind::CurandLike => ctx.curand_next_f32(gm, self.bufs.curand),
        }
    }

    fn choice_value(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, cidx: &Reg<u32>) -> Reg<f32> {
        if self.opts.use_choice_table {
            if self.opts.texture {
                ctx.ld_tex_f32(gm, self.bufs.choice, cidx)
            } else {
                ctx.ld_global_f32(gm, self.bufs.choice, cidx)
            }
        } else {
            let tau = ctx.ld_global_f32(gm, self.bufs.tau, cidx);
            let d = ctx.ld_global_f32(gm, self.bufs.dist, cidx);
            let zero = ctx.splat_f32(0.0);
            let dz = ctx.fle(&d, &zero);
            let one = ctx.splat_f32(1.0);
            let eta_raw = ctx.fdiv(&one, &d);
            let clamp = ctx.splat_f32(ETA_ZERO_DIST);
            let eta = ctx.select_f32(&dz, &clamp, &eta_raw);
            let a = ctx.splat_f32(self.alpha);
            let b = ctx.splat_f32(self.beta);
            ctx.charge(Op::Sfu, 14);
            let ta = ctx.fpow(&tau, &a);
            let eb = ctx.fpow(&eta, &b);
            ctx.fmul(&ta, &eb)
        }
    }

    fn tabu_check(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        city: &Reg<u32>,
    ) -> Reg<f32> {
        let n = ctx.splat_u32(self.bufs.n);
        let flag = match ants.tabu {
            TabuState::Global => {
                let row = ctx.imul(&ants.tid_global, &n);
                let idx = ctx.iadd(&row, city);
                ctx.ld_global_u32(gm, self.bufs.visited, &idx)
            }
            TabuState::SharedInt(arr) => {
                let row = ctx.imul(&ants.tid_local, &n);
                let idx = ctx.iadd(&row, city);
                ctx.sh_ld_u32(arr, &idx)
            }
            TabuState::SharedBits(arr) => {
                let words = ctx.splat_u32(self.bufs.n.div_ceil(32));
                let five = ctx.splat_u32(5);
                let word = ctx.ishr(city, &five);
                let row = ctx.imul(&ants.tid_local, &words);
                let idx = ctx.iadd(&row, &word);
                let w = ctx.sh_ld_u32(arr, &idx);
                let thirty_one = ctx.splat_u32(31);
                let bit = ctx.iand(city, &thirty_one);
                let shifted = ctx.ishr(&w, &bit);
                let one = ctx.splat_u32(1);
                ctx.iand(&shifted, &one)
            }
        };
        let fone = ctx.splat_f32(1.0);
        let f = ctx.u2f(&flag);
        ctx.fsub(&fone, &f)
    }

    fn tabu_set(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, ants: &Ants, city: &Reg<u32>) {
        let n = ctx.splat_u32(self.bufs.n);
        match ants.tabu {
            TabuState::Global => {
                let row = ctx.imul(&ants.tid_global, &n);
                let idx = ctx.iadd(&row, city);
                let one = ctx.splat_u32(1);
                ctx.st_global_u32(gm, self.bufs.visited, &idx, &one);
            }
            TabuState::SharedInt(arr) => {
                let row = ctx.imul(&ants.tid_local, &n);
                let idx = ctx.iadd(&row, city);
                let one = ctx.splat_u32(1);
                ctx.sh_st_u32(arr, &idx, &one);
            }
            TabuState::SharedBits(arr) => {
                let words = ctx.splat_u32(self.bufs.n.div_ceil(32));
                let five = ctx.splat_u32(5);
                let word = ctx.ishr(city, &five);
                let row = ctx.imul(&ants.tid_local, &words);
                let idx = ctx.iadd(&row, &word);
                let w = ctx.sh_ld_u32(arr, &idx);
                let thirty_one = ctx.splat_u32(31);
                let bit = ctx.iand(city, &thirty_one);
                let one = ctx.splat_u32(1);
                let mask_bit = ctx.ishl(&one, &bit);
                let neww = ctx.ior(&w, &mask_bit);
                ctx.sh_st_u32(arr, &idx, &neww);
            }
        }
    }

    fn argmax_unvisited(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
    ) -> Reg<u32> {
        let n = self.bufs.n;
        let nreg = ctx.splat_u32(n);
        let one = ctx.splat_f32(1.0);
        let curn = ctx.imul(cur, &nreg);
        let mut best_v = ctx.splat_f32(-1.0);
        let mut best_j = ctx.splat_u32(0);
        for j in 0..n {
            let jr = ctx.splat_u32(j);
            let cidx = ctx.iadd(&curn, &jr);
            let v = self.choice_value(ctx, gm, &cidx);
            let unvis = self.tabu_check(ctx, gm, ants, &jr);
            let vp1 = ctx.fadd(&v, &one);
            let v = ctx.fmul(&vp1, &unvis);
            let better = ctx.fgt(&v, &best_v);
            best_v = ctx.select_f32(&better, &v, &best_v);
            best_j = ctx.select_u32(&better, &jr, &best_j);
        }
        best_j
    }

    fn select_full(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
        lcg: &mut Reg<u32>,
    ) -> Reg<u32> {
        let n = self.bufs.n;
        let nreg = ctx.splat_u32(n);
        let curn = ctx.imul(cur, &nreg);
        let prob_base = ctx.imul(&ants.tid_global, &nreg);

        let mut sum = ctx.splat_f32(0.0);
        for j in 0..n {
            let jr = ctx.splat_u32(j);
            let cidx = ctx.iadd(&curn, &jr);
            let raw = self.choice_value(ctx, gm, &cidx);
            let unvis = self.tabu_check(ctx, gm, ants, &jr);
            let p = ctx.fmul(&raw, &unvis);
            let pidx = ctx.iadd(&prob_base, &jr);
            ctx.st_global_f32(gm, self.bufs.prob, &pidx, &p);
            sum = ctx.fadd(&sum, &p);
        }

        let r = self.draw(ctx, gm, lcg);
        let target = ctx.fmul(&r, &sum);

        let mut j = ctx.splat_u32(0);
        let mut cum = ctx.ld_global_f32(gm, self.bufs.prob, &prob_base);
        let one = ctx.splat_u32(1);
        let nm1 = ctx.splat_u32(n - 1);
        ctx.loop_while(gm, |ctx, gm| {
            let below = ctx.flt(&cum, &target);
            let more = ctx.ult(&j, &nm1);
            let cont = below.and(&more);
            ctx.if_then(gm, &cont.clone(), |ctx, gm| {
                let jn = ctx.iadd(&j, &one);
                ctx.assign_u32(&mut j, &jn);
                let pidx = ctx.iadd(&prob_base, &j);
                let p = ctx.ld_global_f32(gm, self.bufs.prob, &pidx);
                let cn = ctx.fadd(&cum, &p);
                ctx.assign_f32(&mut cum, &cn);
            });
            cont
        });

        let unvis = self.tabu_check(ctx, gm, ants, &j);
        let zero = ctx.splat_f32(0.0);
        let bad = ctx.fle(&unvis, &zero);
        let mut next = j;
        ctx.if_then(gm, &bad, |ctx, gm| {
            let fixed = self.argmax_unvisited(ctx, gm, ants, cur);
            ctx.assign_u32(&mut next, &fixed);
        });
        next
    }

    fn select_nn(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        ants: &Ants,
        cur: &Reg<u32>,
        lcg: &mut Reg<u32>,
    ) -> Reg<u32> {
        let nn = self.bufs.nn;
        let nreg = ctx.splat_u32(self.bufs.n);
        let nnreg = ctx.splat_u32(nn);
        let curn = ctx.imul(cur, &nreg);
        let curnn = ctx.imul(cur, &nnreg);

        let mut ps: Vec<Reg<f32>> = Vec::with_capacity(nn as usize);
        let mut cands: Vec<Reg<u32>> = Vec::with_capacity(nn as usize);
        let mut sum = ctx.splat_f32(0.0);
        for c in 0..nn {
            let cr = ctx.splat_u32(c);
            let lidx = ctx.iadd(&curnn, &cr);
            let cand = ctx.ld_global_u32(gm, self.bufs.nn_list, &lidx);
            let cidx = ctx.iadd(&curn, &cand);
            let v = self.choice_value(ctx, gm, &cidx);
            let unvis = self.tabu_check(ctx, gm, ants, &cand);
            let p = ctx.fmul(&v, &unvis);
            sum = ctx.fadd(&sum, &p);
            ps.push(p);
            cands.push(cand);
        }

        let zero = ctx.splat_f32(0.0);
        let feasible = ctx.fgt(&sum, &zero);
        let mut next = ctx.splat_u32(0);
        ctx.branch(&feasible);
        ctx.with_mask(gm, &feasible, |ctx, gm| {
            let r = self.draw(ctx, gm, lcg);
            let target = ctx.fmul(&r, &sum);
            let mut cum = ctx.splat_f32(0.0);
            let mut done = Mask::none(ctx.block_dim as usize);
            let mut chosen = cands[0].clone();
            for c in 0..nn as usize {
                cum = ctx.fadd(&cum, &ps[c]);
                let crossed = ctx.fge(&cum, &target);
                let has_p = ctx.fgt(&ps[c], &zero);
                let newly = crossed.and_not(&done).and(&has_p);
                chosen = ctx.select_u32(&newly, &cands[c], &chosen);
                done = done.or(&newly);
                ctx.charge(Op::IAlu, 2);
            }
            let undone = done.not();
            ctx.if_then(gm, &undone, |ctx, _| {
                let mut bv = ctx.splat_f32(-1.0);
                let mut bc = cands[0].clone();
                for c in 0..nn as usize {
                    let better = ctx.fgt(&ps[c], &bv);
                    bv = ctx.select_f32(&better, &ps[c], &bv);
                    bc = ctx.select_u32(&better, &cands[c], &bc);
                }
                ctx.assign_u32(&mut chosen, &bc);
            });
            ctx.assign_u32(&mut next, &chosen);
        });
        let infeasible = feasible.not();
        ctx.with_mask(gm, &infeasible, |ctx, gm| {
            let best = self.argmax_unvisited(ctx, gm, ants, cur);
            ctx.assign_u32(&mut next, &best);
        });
        next
    }
}

impl Kernel for WrittenOutTask {
    fn name(&self) -> &'static str {
        "tour_task_written_out"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let stride = self.bufs.stride;
        let (block, shared) = (self.opts.block, ctx.device().shared_mem_per_sm);
        let words = if self.opts.tabu == TabuPlacement::Global {
            None
        } else if block * n * 4 <= shared {
            Some(n)
        } else if block * n.div_ceil(32) * 4 <= shared {
            Some(n.div_ceil(32))
        } else {
            None
        };

        let tabu = match words {
            None => TabuState::Global,
            Some(words) => {
                let arr = ctx.shared_alloc_u32((block * words) as usize);
                let tl = ctx.thread_idx();
                let wreg = ctx.splat_u32(words);
                let row = ctx.imul(&tl, &wreg);
                let zero = ctx.splat_u32(0);
                for w in 0..words {
                    let wr = ctx.splat_u32(w);
                    let idx = ctx.iadd(&row, &wr);
                    ctx.sh_st_u32(arr, &idx, &zero);
                }
                if words == n {
                    TabuState::SharedInt(arr)
                } else {
                    TabuState::SharedBits(arr)
                }
            }
        };

        let tid_global = ctx.global_thread_idx();
        let tid_local = ctx.thread_idx();
        let ants = Ants { tabu, tid_global, tid_local };
        let m = ctx.splat_u32(self.bufs.m);
        let is_ant = ctx.ult(&ants.tid_global, &m);

        ctx.if_then(gm, &is_ant, |ctx, gm| {
            let mut lcg = {
                let base = ctx.block_idx * ctx.block_dim;
                let seed = self.seed ^ self.iteration.wrapping_mul(0x9E37_79B9);
                ctx.reg_from_fn_u32(|lane| PmRng::thread_seed(seed, (base as usize + lane) as u64))
            };

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
                    self.select_nn(ctx, gm, &ants, &cur, &mut lcg)
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

            let row = ctx.imul(&cur, &nreg);
            let didx = ctx.iadd(&row, &start);
            let d = ctx.ld_global_f32(gm, self.bufs.dist, &didx);
            len = ctx.fadd(&len, &d);

            for p in n..stride {
                let pr = ctx.splat_u32(p);
                let pos = ctx.iadd(&base, &pr);
                ctx.st_global_u32(gm, self.bufs.tours, &pos, &start);
            }

            ctx.st_global_f32(gm, self.bufs.lengths, &ants.tid_global, &len);
        });
    }
}

/// Rows 1–6 at every `m` of the grid for the given sizes, both devices,
/// every execution mode.
fn task_rows(sizes: &[usize], rows: &[TourStrategy]) {
    for &n in sizes {
        let inst = tsp::uniform_random("lane-pass-task", n, 900.0, n as u64);
        for m in [1, 8, 40, 129] {
            for dev in devices() {
                for &row in rows {
                    let opts = row.task_opts().expect("a task-parallel row");
                    for exec in EXECS {
                        let case = format!("{row:?} n={n} m={m} {} {exec:?}", dev.name);
                        let (_, bufs) = colony(&inst, m);
                        let kernel = TaskTourKernel {
                            bufs,
                            opts,
                            alpha: 1.0,
                            beta: 2.0,
                            seed: 11,
                            iteration: 3,
                        };
                        let cfg = kernel.config(&dev);
                        let kernel = WrittenOutTask(kernel);
                        assert_same(&case, [&kernel, &kernel.0], |k| {
                            let (mut gm, bufs) = colony(&inst, m);
                            let bits = launch_bits(&dev, &cfg, k, &mut gm, exec);
                            (bits, tour_words(&gm, bufs))
                        });
                    }
                }
            }
        }
    }
}

#[test]
fn task_rows_match_their_written_out_form() {
    task_rows(&[5, 24], &TourStrategy::ALL[..6]);
}

#[test]
#[ignore = "the full grid; run in release with --include-ignored"]
fn task_rows_1_to_3_match_their_written_out_form_at_every_size() {
    task_rows(&[48, 100, 150], &TourStrategy::ALL[..3]);
}

#[test]
#[ignore = "the full grid; run in release with --include-ignored"]
fn task_rows_4_to_6_match_their_written_out_form_at_every_size() {
    task_rows(&[48, 100, 150], &TourStrategy::ALL[3..6]);
}

// --- Table II rows 7–8 ---------------------------------------------------------

/// The data-parallel construction kernel as it was written op by op:
/// every tile as sixteen lane-wise ops and the visited mark as a real
/// branch.
struct WrittenOutDataParallel(DataParallelTourKernel);

impl WrittenOutDataParallel {
    fn load_choice(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, idx: &Reg<u32>) -> Reg<f32> {
        if self.0.texture {
            ctx.ld_tex_f32(gm, self.0.bufs.choice, idx)
        } else {
            ctx.ld_global_f32(gm, self.0.bufs.choice, idx)
        }
    }

    fn mark_visited(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, tabu: &mut Reg<u32>, city: u32) {
        let t = self.0.block_dim();
        ctx.charge(Op::IDivMod, 2);
        let owner = city % t;
        let tile = city / t;
        let owner_mask = ctx.lane_mask(owner);
        ctx.if_then(gm, &owner_mask, |ctx, _| {
            let bit = ctx.splat_u32(1 << tile);
            let updated = ctx.ior(tabu, &bit);
            ctx.assign_u32(tabu, &updated);
        });
    }
}

impl Kernel for WrittenOutDataParallel {
    fn name(&self) -> &'static str {
        "tour_data_parallel_written_out"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let k = &self.0;
        let n = k.bufs.n;
        let t = k.block_dim();
        let tiles = k.tiles();
        let stride = k.bufs.stride;
        let ant = ctx.block_idx;
        let base_scalar = ant * stride;

        let sh_val = ctx.shared_alloc_f32(t as usize);
        let sh_idx = ctx.shared_alloc_u32(t as usize);

        let lane = ctx.thread_idx();
        let mut lcg = {
            let seed = k.seed ^ k.iteration.wrapping_mul(0x9E37_79B9);
            let base = ant * t;
            ctx.reg_from_fn_u32(|l| PmRng::thread_seed(seed, (base as usize + l) as u64))
        };
        let mut tabu = ctx.splat_u32(0);

        let r0 = ctx.lcg_next_f32(&mut lcg);
        let start = ((r0.lane(0) * n as f32) as u32).min(n - 1);
        let lane0 = ctx.lane_mask(0);
        let start_reg = ctx.splat_u32(start);
        let base_reg = ctx.splat_u32(base_scalar);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            ctx.st_global_u32(gm, k.bufs.tours, &base_reg, &start_reg);
        });
        self.mark_visited(ctx, gm, &mut tabu, start);

        let mut cur = start;
        let mut len = 0.0f32;
        let neg = ctx.splat_f32(-1.0);
        let zero_u = ctx.splat_u32(0);
        let one_u = ctx.splat_u32(1);
        let cells_m1 = ctx.splat_u32(n * n - 1);
        let n_reg = ctx.splat_u32(n);

        for step in 1..n {
            let mut best_val = f32::NEG_INFINITY;
            let mut best_city = u32::MAX;

            for tile in 0..tiles {
                let tile_base = ctx.splat_u32(tile * t);
                let city = ctx.iadd(&tile_base, &lane);
                let in_range = ctx.ult(&city, &n_reg);
                let tile_sh = ctx.splat_u32(tile);
                let shifted = ctx.ishr(&tabu, &tile_sh);
                let bit = ctx.iand(&shifted, &one_u);
                let unvis = ctx.ueq(&bit, &zero_u).and(&in_range);

                let row = ctx.splat_u32(cur * n);
                let idx_raw = ctx.iadd(&row, &city);
                let idx = ctx.imin(&idx_raw, &cells_m1);
                let c = self.load_choice(ctx, gm, &idx);
                let r = ctx.lcg_next_f32(&mut lcg);
                let v = ctx.fmul(&c, &r);
                let val = ctx.select_f32(&unvis, &v, &neg);

                ctx.sh_st_f32(sh_val, &lane, &val);
                ctx.sh_st_u32(sh_idx, &lane, &city);
                ctx.sync_threads();
                ctx.sh_argmax_tree(sh_val, sh_idx);
                let tile_val = ctx.sh_ld_f32_uniform(sh_val, 0);
                let tile_city = ctx.sh_ld_u32_uniform(sh_idx, 0);
                ctx.charge(Op::FAlu, 1);
                if tile_val > best_val {
                    best_val = tile_val;
                    best_city = tile_city;
                }
            }

            let winner = best_city;
            self.mark_visited(ctx, gm, &mut tabu, winner);

            let step_reg = ctx.splat_u32(base_scalar + step);
            let winner_reg = ctx.splat_u32(winner);
            let didx = ctx.splat_u32(cur * n + winner);
            let lane0 = ctx.lane_mask(0);
            let mut d_reg = ctx.splat_f32(0.0);
            ctx.if_then(gm, &lane0, |ctx, gm| {
                ctx.st_global_u32(gm, k.bufs.tours, &step_reg, &winner_reg);
                let d = ctx.ld_global_f32(gm, k.bufs.dist, &didx);
                ctx.assign_f32(&mut d_reg, &d);
            });
            len += d_reg.lane(0);
            cur = winner;
        }

        let didx = ctx.splat_u32(cur * n + start);
        let lane0 = ctx.lane_mask(0);
        let mut d_reg = ctx.splat_f32(0.0);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            let d = ctx.ld_global_f32(gm, k.bufs.dist, &didx);
            ctx.assign_f32(&mut d_reg, &d);
        });
        len += d_reg.lane(0);

        let start_fill = ctx.splat_u32(start);
        let stride_reg = ctx.splat_u32(stride);
        let mut p = n;
        while p < stride {
            let p_reg = ctx.splat_u32(p);
            let pos_local = ctx.iadd(&p_reg, &lane);
            let fits = ctx.ult(&pos_local, &stride_reg);
            let pos = ctx.iadd(&base_reg, &pos_local);
            ctx.if_then(gm, &fits, |ctx, gm| {
                ctx.st_global_u32(gm, k.bufs.tours, &pos, &start_fill);
            });
            p += t;
        }

        let len_reg = ctx.splat_f32(len);
        let ant_reg = ctx.splat_u32(ant);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            ctx.st_global_f32(gm, k.bufs.lengths, &ant_reg, &len_reg);
        });
    }
}

#[test]
fn data_parallel_rows_match_their_written_out_form() {
    let mut cases = 0;
    for n in [5, 20, 33, 48, 64, 100, 129, 300] {
        let inst = tsp::uniform_random("dp-oracle", n, 900.0, n as u64);
        for dev in devices() {
            for texture in [false, true] {
                for seed in [3, 17] {
                    // Every layout fits the 32-tile tabu: n = 300 at block
                    // 32 is 10 tiles.
                    for block_override in [None, Some(32), Some(512)] {
                        for exec in EXECS {
                            let case = format!(
                                "n={n} {} texture={texture} seed={seed} \
                                 block={block_override:?} {exec:?}",
                                dev.name
                            );
                            let (_, bufs) = colony(&inst, 5);
                            let kernel = DataParallelTourKernel {
                                bufs,
                                texture,
                                seed,
                                iteration: 2,
                                block_override,
                            };
                            let cfg = kernel.config();
                            let kernel = WrittenOutDataParallel(kernel);
                            assert_same(&case, [&kernel, &kernel.0], |k| {
                                let (mut gm, bufs) = colony(&inst, 5);
                                let bits = launch_bits(&dev, &cfg, k, &mut gm, exec);
                                (bits, tour_words(&gm, bufs))
                            });
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 8 * 2 * 2 * 2 * 3 * 3);
}

/// An M2050 with 8 banks, fewer than its 32-lane conflict group: there a
/// group's contiguous words fall 4 to a bank.
fn few_banks() -> DeviceSpec {
    DeviceSpec { shared_banks: 8, ..DeviceSpec::tesla_m2050() }
}

#[test]
fn data_parallel_rows_match_their_written_out_form_with_few_banks() {
    let dev = few_banks();
    for n in [33, 100] {
        let inst = tsp::uniform_random("dp-oracle", n, 900.0, n as u64);
        for texture in [false, true] {
            for exec in EXECS {
                let case = format!("n={n} 8 banks texture={texture} {exec:?}");
                let (_, bufs) = colony(&inst, 5);
                let kernel = DataParallelTourKernel::new(bufs, texture, 3, 2);
                let cfg = kernel.config();
                let kernel = WrittenOutDataParallel(kernel);
                assert_same(&case, [&kernel, &kernel.0], |k| {
                    let (mut gm, bufs) = colony(&inst, 5);
                    let bits = launch_bits(&dev, &cfg, k, &mut gm, exec);
                    (bits, tour_words(&gm, bufs))
                });
            }
        }
    }
}

// --- the scatter-to-gather pheromone rows -----------------------------------------

/// The scatter-to-gather kernel with every tour step's edge match
/// written out: four compares, three predicate ops, a zero splat, a
/// select and the add (after two splats of a staged tile's cities).
struct WrittenOutScatter(ScatterGatherKernel);

/// `acc += delta` on the lanes whose cell `(i, j)` is the edge
/// `(c0, c1)` in either direction.
fn match_accumulate(
    ctx: &mut BlockCtx,
    acc: &mut Reg<f32>,
    [c0, c1, i, j]: [&Reg<u32>; 4],
    delta: &Reg<f32>,
) {
    let (m1, m2) = (ctx.ueq(c0, i), ctx.ueq(c1, j));
    let (m3, m4) = (ctx.ueq(c0, j), ctx.ueq(c1, i));
    let hit = m1.and(&m2).or(&m3.and(&m4));
    ctx.charge(Op::IAlu, 3);
    let zero = ctx.splat_f32(0.0);
    let dd = ctx.select_f32(&hit, delta, &zero);
    *acc = ctx.fadd(acc, &dd);
}

impl Kernel for WrittenOutScatter {
    fn name(&self) -> &'static str {
        "pheromone_scatter_written_out"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let k = &self.0;
        let (n, m, stride) = (k.bufs.n, k.bufs.m, k.bufs.stride);
        let cell_raw = ctx.global_thread_idx();
        let limit = ctx.splat_u32(k.cells());
        let in_range = ctx.ult(&cell_raw, &limit);
        let last = ctx.splat_u32(k.cells() - 1);
        let cell = ctx.imin(&cell_raw, &last);
        let sh = (k.mode != ScatterMode::Plain).then(|| ctx.shared_alloc_u32(THETA as usize + 1));

        let (i, j) = if k.mode == ScatterMode::TiledReduced {
            ctx.charge(Op::Sfu, 1);
            ctx.charge(Op::IAlu, 6);
            let ij = ctx.reg_from_fn_u32(|lane| {
                let c = cell.lane(lane);
                let (mut row, mut row_start) = (0u32, 0u32);
                while c >= row_start + (n - row) {
                    row_start += n - row;
                    row += 1;
                }
                (row << 16) | (row + (c - row_start))
            });
            let sixteen = ctx.splat_u32(16);
            let mask = ctx.splat_u32(0xFFFF);
            (ctx.ishr(&ij, &sixteen), ctx.iand(&ij, &mask))
        } else {
            let n_reg = ctx.splat_u32(n);
            ctx.charge(Op::IDivMod, 2);
            (ctx.idiv(&cell, &n_reg), ctx.imod(&cell, &n_reg))
        };

        let lane = (k.mode != ScatterMode::Plain).then(|| ctx.thread_idx());
        let mut acc = ctx.splat_f32(0.0);
        for a in 0..m {
            let ant_reg = ctx.splat_u32(a);
            let c_len = ctx.ld_global_f32(gm, k.bufs.lengths, &ant_reg);
            let one = ctx.splat_f32(1.0);
            let delta = ctx.fdiv(&one, &c_len);
            let Some(sh) = sh else {
                for s in 0..n {
                    let i0 = ctx.splat_u32(a * stride + s);
                    let i1 = ctx.splat_u32(a * stride + s + 1);
                    let c0 = ctx.ld_global_u32(gm, k.bufs.tours, &i0);
                    let c1 = ctx.ld_global_u32(gm, k.bufs.tours, &i1);
                    match_accumulate(ctx, &mut acc, [&c0, &c1, &i, &j], &delta);
                }
                continue;
            };
            let lane = lane.as_ref().expect("tiled rows stage tiles");
            let tiles = stride / THETA;
            for tile in 0..tiles {
                let base = a * stride + tile * THETA;
                let base_reg = ctx.splat_u32(base);
                let g = ctx.iadd(&base_reg, lane);
                let v = ctx.ld_global_u32(gm, k.bufs.tours, &g);
                ctx.sh_st_u32(sh, lane, &v);
                let lane0 = ctx.lane_mask(0);
                let boundary = (base + THETA).min(a * stride + stride - 1);
                let b_reg = ctx.splat_u32(boundary);
                let theta_reg = ctx.splat_u32(THETA);
                ctx.if_then(gm, &lane0, |ctx, gm| {
                    let bv = ctx.ld_global_u32(gm, k.bufs.tours, &b_reg);
                    ctx.sh_st_u32(sh, &theta_reg, &bv);
                });
                ctx.sync_threads();
                let upto = if tile == tiles - 1 { n - tile * THETA } else { THETA };
                for s in 0..upto {
                    let c0s = ctx.sh_ld_u32_uniform(sh, s);
                    let c1s = ctx.sh_ld_u32_uniform(sh, s + 1);
                    let c0 = ctx.splat_u32(c0s);
                    let c1 = ctx.splat_u32(c1s);
                    match_accumulate(ctx, &mut acc, [&c0, &c1, &i, &j], &delta);
                }
                ctx.sync_threads();
            }
        }

        ctx.if_then(gm, &in_range, |ctx, gm| {
            let n_reg = ctx.splat_u32(n);
            let keep = ctx.splat_f32(1.0 - k.rho);
            let ri = ctx.imul(&i, &n_reg);
            let idx_fwd = ctx.iadd(&ri, &j);
            let tau = ctx.ld_global_f32(gm, k.bufs.tau, &idx_fwd);
            let out = ctx.fma(&tau, &keep, &acc);
            ctx.st_global_f32(gm, k.bufs.tau, &idx_fwd, &out);
            if k.mode == ScatterMode::TiledReduced {
                let off_diag = ctx.une(&i, &j);
                ctx.if_then(gm, &off_diag, |ctx, gm| {
                    let rj = ctx.imul(&j, &n_reg);
                    let idx_bwd = ctx.iadd(&rj, &i);
                    let tau_b = ctx.ld_global_f32(gm, k.bufs.tau, &idx_bwd);
                    let out_b = ctx.fma(&tau_b, &keep, &acc);
                    ctx.st_global_f32(gm, k.bufs.tau, &idx_bwd, &out_b);
                });
            }
        });
    }
}

#[test]
fn scatter_rows_match_their_written_out_form() {
    for n in [5, 24, 60] {
        let inst = tsp::uniform_random("scatter-oracle", n, 900.0, n as u64);
        for m in [3, 8] {
            for dev in devices() {
                for mode in [ScatterMode::Plain, ScatterMode::Tiled, ScatterMode::TiledReduced] {
                    for exec in EXECS {
                        let case = format!("{mode:?} n={n} m={m} {} {exec:?}", dev.name);
                        // A colony with tours to deposit.
                        let toured = || {
                            let (mut gm, bufs) = colony(&inst, m);
                            let strategy = TourStrategy::NNList;
                            run_tour(&dev, &mut gm, bufs, strategy, 1.0, 2.0, 5, 0, SimMode::Full)
                                .unwrap();
                            (gm, bufs)
                        };
                        let kernel = ScatterGatherKernel { bufs: toured().1, rho: 0.5, mode };
                        let cfg = kernel.config();
                        let kernel = WrittenOutScatter(kernel);
                        assert_same(&case, [&kernel, &kernel.0], |k| {
                            let (mut gm, bufs) = toured();
                            let bits = launch_bits(&dev, &cfg, k, &mut gm, exec);
                            (bits, f32_words(gm.f32(bufs.tau)).collect())
                        });
                    }
                }
            }
        }
    }
}

// --- the argmax tree -------------------------------------------------------------

/// One block per shared tree of `block_dim` lanes: loads lane values from
/// `input`, reduces them (written out, or with the collective), and
/// writes every shared word back to `out_*`.
struct Tree {
    written_out: bool,
    input: DevicePtr<f32>,
    out_val: DevicePtr<f32>,
    out_idx: DevicePtr<u32>,
}

impl Kernel for Tree {
    fn name(&self) -> &'static str {
        "argmax_tree"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let t = ctx.block_dim;
        let sh_val = ctx.shared_alloc_f32(t as usize);
        let sh_idx = ctx.shared_alloc_u32(t as usize);
        let lane = ctx.thread_idx();
        let g = ctx.global_thread_idx();
        let val = ctx.ld_global_f32(gm, self.input, &g);
        ctx.sh_st_f32(sh_val, &lane, &val);
        ctx.sh_st_u32(sh_idx, &lane, &g);
        ctx.sync_threads();
        if self.written_out {
            let mut s = t / 2;
            while s >= 1 {
                let s_reg = ctx.splat_u32(s);
                let is_lo = ctx.ult(&lane, &s_reg);
                ctx.if_then(gm, &is_lo, |ctx, _| {
                    let other = ctx.iadd(&lane, &s_reg);
                    let vo = ctx.sh_ld_f32(sh_val, &other);
                    let io = ctx.sh_ld_u32(sh_idx, &other);
                    let vm = ctx.sh_ld_f32(sh_val, &lane);
                    let im = ctx.sh_ld_u32(sh_idx, &lane);
                    let better = ctx.fgt(&vo, &vm);
                    let nv = ctx.select_f32(&better, &vo, &vm);
                    let ni = ctx.select_u32(&better, &io, &im);
                    ctx.sh_st_f32(sh_val, &lane, &nv);
                    ctx.sh_st_u32(sh_idx, &lane, &ni);
                });
                ctx.sync_threads();
                s /= 2;
            }
        } else {
            ctx.sh_argmax_tree(sh_val, sh_idx);
        }
        let v = ctx.sh_ld_f32(sh_val, &lane);
        let i = ctx.sh_ld_u32(sh_idx, &lane);
        ctx.st_global_f32(gm, self.out_val, &g, &v);
        ctx.st_global_u32(gm, self.out_idx, &g, &i);
    }
}

#[test]
fn argmax_tree_matches_its_written_out_form() {
    const BLOCKS: u32 = 3;
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050(), few_banks()] {
        for t in [16, 32, 64, 128, 256, 512] {
            // Lane values with ties, `-1.0` sentinels (the tour kernel's
            // visited cities) and one NaN per block.
            let values: Vec<f32> = (0..BLOCKS * t)
                .map(|g| match g % t {
                    l if l == t / 3 + g / t => f32::NAN,
                    l if l % 3 == 1 => -1.0,
                    l => ((l * 37 + g / t * 5) % 11) as f32 * 0.25,
                })
                .collect();
            let cells = (BLOCKS * t) as usize;
            let memory = || {
                let mut gm = GlobalMem::new();
                let input = gm.alloc_f32(cells);
                gm.write_f32(input, &values);
                let (out_val, out_idx) = (gm.alloc_f32(cells), gm.alloc_u32(cells));
                (gm, Tree { written_out: true, input, out_val, out_idx })
            };
            let written_out = memory().1;
            let collective = Tree { written_out: false, ..memory().1 };
            let cfg = LaunchConfig::new(BLOCKS, t).shared(8 * t);
            for exec in EXECS {
                let case = format!("{} ({} banks), block {t} {exec:?}", dev.name, dev.shared_banks);
                assert_same(&case, [&written_out, &collective], |k| {
                    let (mut gm, tree) = memory();
                    let bits = launch_bits(&dev, &cfg, k, &mut gm, exec);
                    let mut words: Vec<u32> = f32_words(gm.f32(tree.out_val)).collect();
                    words.extend(gm.u32(tree.out_idx));
                    (bits, words)
                });
            }
        }
    }
}

/// Calls the argmax tree from inside a branch or on an odd block.
struct Misuse {
    partial: bool,
}

impl Kernel for Misuse {
    fn name(&self) -> &'static str {
        "argmax_tree_misuse"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let t = ctx.block_dim as usize;
        let sh_val = ctx.shared_alloc_f32(t);
        let sh_idx = ctx.shared_alloc_u32(t);
        if self.partial {
            let lane = ctx.thread_idx();
            let half = ctx.splat_u32(ctx.block_dim / 2);
            let lo = ctx.ult(&lane, &half);
            ctx.with_mask(gm, &lo, |ctx, _| ctx.sh_argmax_tree(sh_val, sh_idx));
        } else {
            ctx.sh_argmax_tree(sh_val, sh_idx);
        }
    }
}

fn misuse(block: u32, partial: bool) {
    let mut gm = GlobalMem::new();
    let cfg = LaunchConfig::new(1, block).shared(8 * block);
    let _ = launch(&DeviceSpec::tesla_m2050(), &cfg, &Misuse { partial }, &mut gm, SimMode::Full);
}

#[test]
#[should_panic(expected = "every lane of the block active")]
fn argmax_tree_refuses_a_partial_mask() {
    misuse(64, true);
}

#[test]
#[should_panic(expected = "power-of-two block")]
fn argmax_tree_refuses_a_non_power_of_two_block() {
    misuse(48, false);
}

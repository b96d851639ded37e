//! Data-parallel tour construction (Table II, versions 7–8; Figure 1).
//!
//! The paper's main proposal: **one thread block per ant, one thread per
//! city**. Each construction step, every thread loads the choice value of
//! its city, draws a random number, multiplies in the tabu flag, and a
//! shared-memory max-reduction picks the next city. Cities beyond the
//! block size are covered by *tiling*: a "partial best" is selected per
//! tile and the best of the partial bests wins (Section IV-A).
//!
//! The tabu list is bit-packed in registers — one bit per tile per thread
//! — exactly the paper's scheme, including the integer div/mod it costs to
//! locate a city's owner thread and tile.
//!
//! **What is charged in closed form and what runs for real.** The kernel
//! is modeled as the op-by-op CUDA it stands for, but only the parts whose
//! counters depend on the data are interpreted:
//!
//! - Each tile is one lane pass ([`aco_simt::lane_pass!`]), charged the
//!   tally counted from its body: three splats and the select (`Mov`);
//!   the city add, tabu shift and mask, index add and clamp (`IAlu`); the
//!   in-range and unvisited compares (`FAlu`); the product (`FMul`); and
//!   the Park–Miller draw. The choice load (texture or global) and the
//!   two thread-indexed shared stores run through their memory models.
//! - [`BlockCtx::sh_argmax_tree`] charges the written-out level loop's
//!   counters in closed form and runs its comparisons as a host loop.
//! - Marking a city visited charges the owner/tile div-mod and the branch
//!   over the block (with its one divergent warp, via
//!   [`BlockCtx::branch`]), and runs a splat, an `ior` and an assign as a
//!   lane pass on the owner's lane.
//! - Each step's lane-0 work is a lane pass under the lane-0 branch, after
//!   four splats over the block: the tour store and the distance load
//!   through their memory models and the assign.
//! - These stay real ops: `__syncthreads`, the two uniform shared reads
//!   of each tile's winner, the start draw, the closing edge and the
//!   padding stores.
//!
//! Every closed-form counter holds whole numbers, so the batched charges
//! leave the same bits as the ops would (see [`aco_simt::block`]).
//! `tests/lane_pass_oracle.rs` pins every counter, the modeled time, the
//! tours and the lengths by fingerprints recorded against the op-by-op
//! kernel.
//!
//! Note the selection rule: this is a *stochastically weighted argmax*
//! (`argmax_j choice[cur][j] * r_j` over unvisited `j`), not the exact
//! roulette distribution; the paper adopts it for the GPU and reports
//! "results similar to those obtained by the sequential code". The
//! quality experiments in `crate::quality` quantify that claim.

use aco_simt::alu::Memo;
use aco_simt::lane_pass;
use aco_simt::prelude::*;
use aco_simt::rng::PmRng;

use crate::gpu::buffers::ColonyBuffers;

/// The data-parallel construction kernel.
pub struct DataParallelTourKernel {
    /// Device buffers.
    pub bufs: ColonyBuffers,
    /// Route choice loads through the texture cache (version 8).
    pub texture: bool,
    /// Colony seed.
    pub seed: u64,
    /// Iteration number.
    pub iteration: u64,
    /// Override the block layout (must be a power of two). `None` uses
    /// the default policy; the ablation experiment sweeps this to check
    /// the paper's "empirically demonstrated optimum thread block layout".
    pub block_override: Option<u32>,
}

impl DataParallelTourKernel {
    /// Construct with the default block policy.
    pub fn new(bufs: ColonyBuffers, texture: bool, seed: u64, iteration: u64) -> Self {
        DataParallelTourKernel { bufs, texture, seed, iteration, block_override: None }
    }

    /// Threads per block: the smallest power of two covering `n`, capped
    /// at 256 (the paper's "empirically demonstrated optimum thread block
    /// layout"; power of two so the tree reduction is uniform).
    pub fn block_dim(&self) -> u32 {
        match self.block_override {
            Some(t) => {
                assert!(t.is_power_of_two(), "block layout must be a power of two");
                t
            }
            None => (self.bufs.n.next_power_of_two()).clamp(32, 256),
        }
    }

    /// Number of tiles covering the cities.
    pub fn tiles(&self) -> u32 {
        self.bufs.n.div_ceil(self.block_dim())
    }

    /// Launch geometry: one block per ant.
    pub fn config(&self) -> LaunchConfig {
        let t = self.block_dim();
        assert!(self.tiles() <= 32, "bit-packed tabu supports at most 32 tiles (n <= {})", 32 * t);
        LaunchConfig::new(self.bufs.m, t).regs(16).shared(2 * t * 4)
    }

    /// Mark `city` visited: its owner thread sets bit `city / T` —
    /// the div/mod arithmetic the paper attributes to the bitwise tabu.
    /// `if (lane == owner) tabu |= 1 << tile`, charged in closed form.
    fn mark_visited(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, tabu: &mut Reg<u32>, city: u32) {
        let t = self.block_dim();
        ctx.charge(Op::IDivMod, 2); // owner = city % T, tile = city / T
        let owner = city % t;
        let tile = city / t;
        let owner_mask = ctx.lane_mask(owner);
        ctx.branch(&owner_mask);
        ctx.with_mask(gm, &owner_mask, |ctx, _| {
            lane_pass!(ctx, |pass| {
                let a = pass.alu();
                let bit = a.mov(1 << tile);
                pass.lanes([owner as usize], |l| tabu.set_lane(l, a.mov(a.ior(tabu.lane(l), bit))));
            });
        });
    }

    /// Lane 0 stores `city` at tour slot `pos` and adds the distance at
    /// `didx` to `len`: splats of the slot, the city, the distance index
    /// and a zero over the block, then the branch to lane 0, the store,
    /// the load and its assign.
    fn lane0_step(
        &self,
        ctx: &mut BlockCtx,
        gm: &mut GlobalMem,
        (pos, city): (u32, u32),
        didx: u32,
        len: &mut f32,
    ) {
        ctx.charge(Op::Mov, 4);
        let lane0 = ctx.lane_mask(0);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            *len += lane_pass!(ctx, |pass| {
                let (a, mut d) = (pass.alu(), 0.0);
                pass.st_global_u32(gm, self.bufs.tours, |_| pos, |_| city);
                pass.ld_f32(gm, self.bufs.dist, false, |_| didx, |_, v| d = a.mov(v));
                d
            });
        });
    }
}

impl Kernel for DataParallelTourKernel {
    fn name(&self) -> &'static str {
        "tour_data_parallel"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let t = self.block_dim();
        let tiles = self.tiles();
        let stride = self.bufs.stride;
        let ant = ctx.block_idx;
        let base_scalar = ant * stride;

        let sh_val = ctx.shared_alloc_f32(t as usize);
        let sh_idx = ctx.shared_alloc_u32(t as usize);

        let lane = ctx.thread_idx();
        let mut lcg = {
            let seed = self.seed ^ self.iteration.wrapping_mul(0x9E37_79B9);
            let base = ant * t;
            ctx.reg_from_fn_u32(|l| PmRng::thread_seed(seed, (base as usize + l) as u64))
        };
        // Per-lane bit-packed tabu: bit `k` = "my city in tile k visited".
        let mut tabu = ctx.splat_u32(0);
        // Each lane's key for the argmax tree, rewritten by every tile.
        let mut vals = lane_pass!(ctx, |pass| pass.reg(|_| 0.0f32));

        // Random start city from lane 0's stream.
        let r0 = ctx.lcg_next_f32(&mut lcg);
        let start = ((r0.lane(0) * n as f32) as u32).min(n - 1);
        let lane0 = ctx.lane_mask(0);
        let start_reg = ctx.splat_u32(start);
        let base_reg = ctx.splat_u32(base_scalar);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            ctx.st_global_u32(gm, self.bufs.tours, &base_reg, &start_reg);
        });
        self.mark_visited(ctx, gm, &mut tabu, start);

        let mut cur = start;
        let mut len = 0.0f32;
        ctx.charge(Op::Mov, 5); // splats of -1, 0, 1, n^2 - 1 and n
        let last_cell = n * n - 1;
        // Every tile issues the same instructions.
        let tile_tally = Memo::default();

        for step in 1..n {
            let mut best_val = f32::NEG_INFINITY;
            let mut best_city = u32::MAX;

            for tile in 0..tiles {
                // city = tile*T + lane; unvisited = in range and bit `tile`
                // of my tabu register clear; value = choice[cur*n + city] * r
                // (clamped index for the out-of-range lanes; their value is
                // -1 anyway). Then value and city go to shared slot `lane`.
                let (first, row) = (tile * t, cur * n);
                // The value and city slots are shared words `lane`.
                let city = |l: usize| first + l as u32;
                lane_pass!(ctx, &tile_tally, |pass| {
                    let a = pass.alu();
                    let (first, tile, row) = (a.mov(first), a.mov(tile), a.mov(row));
                    let idx = |l: usize| a.imin(a.iadd(row, a.iadd(first, l as u32)), last_cell);
                    let value = |l: usize, choice: f32| {
                        let mut state = lcg.lane(l);
                        let r = a.draw(&mut state);
                        lcg.set_lane(l, state);
                        let visited = a.iand(a.ishr(tabu.lane(l), tile), 1);
                        let unvisited = a.ult(city(l), n) & a.ueq(visited, 0);
                        vals.set_lane(l, a.select(unvisited, a.fmul(choice, r), -1.0));
                    };
                    pass.ld_f32(gm, self.bufs.choice, self.texture, idx, value);
                    pass.sh_st_lanes(sh_val, |l| vals.lane(l).to_bits());
                    pass.sh_st_lanes(sh_idx, city);
                });

                ctx.sync_threads();
                ctx.sh_argmax_tree(sh_val, sh_idx);
                let tile_val = ctx.sh_ld_f32_uniform(sh_val, 0);
                let tile_city = ctx.sh_ld_u32_uniform(sh_idx, 0);
                ctx.charge(Op::FAlu, 1); // partial-best comparison
                if tile_val > best_val {
                    best_val = tile_val;
                    best_city = tile_city;
                }
            }

            debug_assert!(best_city < n, "a feasible city always remains");
            let winner = best_city;
            self.mark_visited(ctx, gm, &mut tabu, winner);

            // Thread 0 appends to the tour and accumulates the length.
            self.lane0_step(ctx, gm, (base_scalar + step, winner), cur * n + winner, &mut len);
            cur = winner;
        }

        // Closing edge + padding + length.
        let didx = ctx.splat_u32(cur * n + start);
        let lane0 = ctx.lane_mask(0);
        let mut d_reg = ctx.splat_f32(0.0);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            let d = ctx.ld_global_f32(gm, self.bufs.dist, &didx);
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
                ctx.st_global_u32(gm, self.bufs.tours, &pos, &start_fill);
            });
            p += t;
        }

        let len_reg = ctx.splat_f32(len);
        let ant_reg = ctx.splat_u32(ant);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            ctx.st_global_f32(gm, self.bufs.lengths, &ant_reg, &len_reg);
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

    fn run(n: usize, texture: bool, dev: &DeviceSpec) -> (GlobalMem, ColonyBuffers, LaunchResult) {
        let inst = uniform_random("dp", n, 1000.0, 13);
        let mut gm = GlobalMem::new();
        let params = AcoParams::default().nn(10);
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &params);
        let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
        launch(dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
        let k =
            DataParallelTourKernel { bufs, texture, seed: 11, iteration: 0, block_override: None };
        let cfg = k.config();
        let r = launch(dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        (gm, bufs, r)
    }

    #[test]
    fn produces_valid_closed_tours() {
        let dev = DeviceSpec::tesla_c1060();
        let (gm, bufs, r) = run(48, false, &dev);
        for (a, t) in bufs.read_tours(&gm).into_iter().enumerate() {
            assert_eq!(t[0], t[48], "ant {a} must close its tour");
            let tour = Tour::new(t[..48].to_vec()).expect("permutation");
            assert!(tour.is_valid(), "ant {a}");
        }
        assert!(r.stats.barriers > 0.0, "reduction uses __syncthreads");
        assert!(r.stats.shared_accesses > 0.0);
    }

    #[test]
    fn tiling_covers_instances_larger_than_a_block() {
        let dev = DeviceSpec::tesla_c1060();
        // n = 300 > 256 -> 2 tiles.
        let (gm, bufs, _) = run(300, false, &dev);
        let k = DataParallelTourKernel {
            bufs,
            texture: false,
            seed: 0,
            iteration: 0,
            block_override: None,
        };
        assert_eq!(k.block_dim(), 256);
        assert_eq!(k.tiles(), 2);
        for t in bufs.read_tours(&gm) {
            let tour = Tour::new(t[..300].to_vec()).expect("permutation");
            assert!(tour.is_valid());
        }
    }

    #[test]
    fn device_lengths_match_tours() {
        let dev = DeviceSpec::tesla_m2050();
        let inst = uniform_random("dp", 64, 1000.0, 13);
        let mut gm = GlobalMem::new();
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &AcoParams::default().nn(10));
        let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
        launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
        let k = DataParallelTourKernel {
            bufs,
            texture: true,
            seed: 7,
            iteration: 3,
            block_override: None,
        };
        launch(&dev, &k.config(), &k, &mut gm, SimMode::Full).unwrap();
        let lengths = bufs.read_lengths(&gm);
        for (a, t) in bufs.read_tours(&gm).into_iter().enumerate() {
            let tour = Tour::new(t[..64].to_vec()).expect("valid");
            let exact = tour.length(inst.matrix()) as f32;
            let rel = (lengths[a] - exact).abs() / exact;
            assert!(rel < 1e-3, "ant {a}: {} vs {exact}", lengths[a]);
        }
    }

    #[test]
    fn coalesced_choice_loads_beat_task_parallel_on_small_instances() {
        // The paper's core claim: data parallelism wins on small/medium
        // instances (Table II: 0.36 ms vs 1.35 ms on att48).
        use crate::gpu::tour::task::{RngKind, TabuPlacement, TaskOpts, TaskTourKernel};
        let dev = DeviceSpec::tesla_c1060();
        let inst = uniform_random("cmp", 48, 1000.0, 5);
        let mut gm = GlobalMem::new();
        let params = AcoParams::default().nn(12);
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &params);
        let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
        launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();

        bufs.clear_visited(&mut gm);
        let task = TaskTourKernel {
            bufs,
            opts: TaskOpts {
                use_choice_table: true,
                rng: RngKind::DeviceLcg,
                use_nn_list: true,
                tabu: TabuPlacement::Shared,
                texture: true,
                block: 32,
            },
            alpha: 1.0,
            beta: 2.0,
            seed: 3,
            iteration: 0,
        };
        let rt = launch(&dev, &task.config(&dev), &task, &mut gm, SimMode::Full).unwrap();

        let dp = DataParallelTourKernel {
            bufs,
            texture: true,
            seed: 3,
            iteration: 0,
            block_override: None,
        };
        let rd = launch(&dev, &dp.config(), &dp, &mut gm, SimMode::Full).unwrap();
        assert!(
            rd.time.total_ms < rt.time.total_ms,
            "data parallel must win on att48-scale: {} vs {}",
            rd.time.total_ms,
            rt.time.total_ms
        );
    }

    #[test]
    fn texture_reduces_dram_traffic() {
        let dev = DeviceSpec::tesla_c1060();
        let (_, _, plain) = run(100, false, &dev);
        let (_, _, tex) = run(100, true, &dev);
        assert!(
            tex.stats.dram_bytes < plain.stats.dram_bytes,
            "texture cache must cut DRAM bytes: {} vs {}",
            tex.stats.dram_bytes,
            plain.stats.dram_bytes
        );
    }
}

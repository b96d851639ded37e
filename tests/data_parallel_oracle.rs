//! The data-parallel tour kernel (Table II rows 7–8) against the op-by-op
//! kernel it replaced, kept here as the oracle: every construction tile
//! as sixteen lane-wise ops (index and in-range math, tabu-bit test,
//! clamped index, choice load, Park–Miller draw, product, select, two
//! lane-indexed shared stores) and the visited mark as a real branch.
//!
//! Every `KernelStats` bit, the modeled ms, the tours and the `f32`
//! lengths must agree, on both modeled devices, with and without the
//! texture path, for several tile layouts, under full and sampled
//! execution and with the blocks spread over four host threads.

use aco_gpu::core::gpu::choice::ChoiceKernel;
use aco_gpu::core::gpu::tour::DataParallelTourKernel;
use aco_gpu::core::gpu::ColonyBuffers;
use aco_gpu::core::AcoParams;
use aco_gpu::simt::prelude::*;
use aco_gpu::simt::rng::PmRng;
use aco_gpu::tsp;

/// The data-parallel construction kernel as it was written op by op.
struct OpByOp(DataParallelTourKernel);

impl OpByOp {
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

impl Kernel for OpByOp {
    fn name(&self) -> &'static str {
        "tour_data_parallel_op_by_op"
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

/// How the launch executes its blocks.
#[derive(Debug, Clone, Copy)]
enum Exec {
    Full,
    Sampled,
    FourThreads,
}

const ANTS: usize = 5;

/// Every counter bit, the modeled ms, the tours and the length bits of
/// one launch of `op_by_op` or of the kernel itself on a fresh colony.
fn run(
    dev: &DeviceSpec,
    inst: &tsp::TspInstance,
    texture: bool,
    seed: u64,
    block_override: Option<u32>,
    exec: Exec,
    op_by_op: bool,
) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let mut gm = GlobalMem::new();
    let params = AcoParams::default().nn(4.min(inst.n() - 1)).ants(ANTS);
    let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
    let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
    launch(dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
    let k = DataParallelTourKernel { bufs, texture, seed, iteration: 2, block_override };
    let cfg = k.config();
    let (mode, threads) = match exec {
        Exec::Full => (SimMode::Full, 1),
        Exec::Sampled => (SimMode::SampleBlocks(2), 1),
        Exec::FourThreads => (SimMode::Full, 4),
    };
    let r = if op_by_op {
        launch_threads(dev, &cfg, &OpByOp(k), &mut gm, mode, threads)
    } else {
        launch_threads(dev, &cfg, &k, &mut gm, mode, threads)
    }
    .unwrap();
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
        &r.time.total_ms,
    ] {
        bits.push(v.to_bits());
    }
    bits.push(r.executed_blocks as u64);
    let lengths = gm.f32(bufs.lengths).iter().map(|l| l.to_bits()).collect();
    (bits, gm.u32(bufs.tours).to_vec(), lengths)
}

#[test]
fn lane_pass_kernel_matches_the_op_by_op_kernel() {
    let mut cases = 0;
    for n in [5, 20, 33, 48, 64, 100, 129, 300] {
        let inst = tsp::uniform_random("dp-oracle", n, 900.0, n as u64);
        for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
            for texture in [false, true] {
                for seed in [3, 17] {
                    // Every layout fits the 32-tile tabu: n = 300 at block
                    // 32 is 10 tiles.
                    for block_override in [None, Some(32), Some(512)] {
                        for exec in [Exec::Full, Exec::Sampled, Exec::FourThreads] {
                            let case = format!(
                                "n={n} {} texture={texture} seed={seed} \
                                 block={block_override:?} {exec:?}",
                                dev.name
                            );
                            let run = |op_by_op| {
                                run(&dev, &inst, texture, seed, block_override, exec, op_by_op)
                            };
                            let (oracle_bits, oracle_tours, oracle_lengths) = run(true);
                            let (bits, tours, lengths) = run(false);
                            assert_eq!(bits, oracle_bits, "{case}: counters and modeled ms");
                            assert_eq!(tours, oracle_tours, "{case}: tours");
                            assert_eq!(lengths, oracle_lengths, "{case}: lengths");
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 8 * 2 * 2 * 2 * 3 * 3);
}

/// Calls the collective from inside a branch.
struct PartialTile {
    src: DevicePtr<f32>,
}

impl Kernel for PartialTile {
    fn name(&self) -> &'static str {
        "choice_tile_misuse"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let t = ctx.block_dim as usize;
        let src = self.src;
        let keys = ctx.shared_alloc_f32(t);
        let tags = ctx.shared_alloc_u32(t);
        let mut rng = ctx.splat_u32(1);
        let lane = ctx.thread_idx();
        let half = ctx.splat_u32(ctx.block_dim / 2);
        let lo = ctx.ult(&lane, &half);
        ctx.with_mask(gm, &lo, |ctx, gm| {
            ctx.ld_draw_st_tile(
                gm,
                src,
                true,
                |l| l as u32,
                &mut rng,
                (keys, tags),
                |l, v, r| (v * r, l as u32),
            );
        });
    }
}

#[test]
#[should_panic(expected = "every lane of the block active")]
fn choice_tile_refuses_a_partial_mask() {
    let mut gm = GlobalMem::new();
    let src = gm.alloc_f32(64);
    let cfg = LaunchConfig::new(1, 64).shared(8 * 64);
    let _ = launch(&DeviceSpec::tesla_m2050(), &cfg, &PartialTile { src }, &mut gm, SimMode::Full);
}

//! Scatter-to-gather pheromone update (Tables III/IV, versions 3–5;
//! Figure 3).
//!
//! The atomic-free family: one thread per pheromone cell *gathers* its own
//! deposits by scanning every ant's tour and checking whether its edge
//! appears. The paper derives the access counts this reproduces:
//!
//! * version 5 (plain): each of the `n²` threads performs `2·n²` global
//!   loads — `l = 2·n⁴` total ("drastically increasing the number of
//!   accesses to device memory");
//! * version 4 (+ tiling): tour tiles are staged in shared memory
//!   cooperatively, cutting global loads to `γ = 2·n⁴/θ`;
//! * version 3 (+ instruction & thread reduction): the symmetric TSP needs
//!   only the upper triangle — half the threads, `ρ = n⁴/θ`, each thread
//!   writing both `(i,j)` and `(j,i)`.
//!
//! Evaporation is fused into the same kernel (each thread owns its cell).
//!
//! **Host cost.** Every lane runs the same branch-free match per tour
//! step, so its counters do not depend on the data: each staged tile
//! (each ant in the plain row) charges them as one lane pass whose tally
//! is one step's match times the steps, and each step's deposit is added
//! only to the lanes that own the edge's cells — `(c0, c1)` and
//! `(c1, c0)`, or the one upper-triangle cell of the reduced row. This is
//! exact. Each charge is a whole number of cycles and instructions (see
//! the `aco_simt::block` docs). `acc` starts at `+0.0` and only gains
//! `δ = 1/L` with `L ≥ 0`, so it is never `-0.0`, and the `+0.0` a
//! non-matching lane would add is the identity. Each cell still adds its
//! deltas in `(ant, step)` order. Out-of-range lanes, clamped to the last
//! cell, get no deposit, and they are never stored. Everything the memory
//! models see stays a real op: the tile staging loads and barriers, the
//! uniform shared reads, each ant's length load, the plain row's two
//! global loads per step and the fused evaporate-and-deposit writes. The
//! length loads and the plain row's tour loads are broadcast loads
//! (`BlockCtx::ld_global_u32_uniform`): every lane reads one word, so the
//! coalescing and L1 models charge them per warp, still exactly as they
//! charge the per-lane load of one address. The registers they no longer
//! need are charged in tallies instead: each ant's index and `1.0` splats
//! and its division (`DELTA`), and a plain-row step's two address splats
//! (`STAGED`).

use aco_simt::prelude::*;

use crate::gpu::buffers::{ColonyBuffers, THETA};

/// Which scatter-to-gather row this launch models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterMode {
    /// Version 5: direct global scans.
    Plain,
    /// Version 4: tour tiles staged in shared memory.
    Tiled,
    /// Version 3: tiled + upper-triangle threads writing both symmetric
    /// cells.
    TiledReduced,
}

/// The scatter-to-gather kernel (fused evaporation + gather deposit).
pub struct ScatterGatherKernel {
    /// Device buffers.
    pub bufs: ColonyBuffers,
    /// Evaporation rate ρ.
    pub rho: f32,
    /// Row selector.
    pub mode: ScatterMode,
}

impl ScatterGatherKernel {
    /// Cells owned by threads: all `n²`, or the upper triangle
    /// (including the diagonal) for the reduced version.
    pub fn cells(&self) -> u32 {
        let n = self.bufs.n;
        match self.mode {
            ScatterMode::Plain | ScatterMode::Tiled => n * n,
            ScatterMode::TiledReduced => n * (n + 1) / 2,
        }
    }

    /// One thread per owned cell, θ-wide blocks.
    pub fn config(&self) -> LaunchConfig {
        let shared = match self.mode {
            ScatterMode::Plain => 0,
            _ => (THETA + 1) * 4,
        };
        LaunchConfig::new(self.cells().div_ceil(THETA), THETA).regs(16).shared(shared)
    }

    /// Map a linear upper-triangle index to `(i, j)`.
    ///
    /// The device pays one `sqrtf` (SFU) plus a handful of integer ops for
    /// the closed-form row computation; those are charged explicitly. The
    /// functional mapping is computed with an exact integer scan so row
    /// boundaries never suffer float rounding. Cities fit in 16 bits
    /// (TSPLIB tops out far below 65 536), so the pair is packed.
    fn triangle_coords(&self, ctx: &mut BlockCtx, cell: &Reg<u32>) -> (Reg<u32>, Reg<u32>) {
        ctx.charge(Op::Sfu, 1); // sqrtf of the discriminant
        ctx.charge(Op::IAlu, 6); // row/column arithmetic
        let n32 = self.bufs.n;
        let ij = ctx.reg_from_fn_u32(|lane| {
            let k = cell.lane(lane);
            let (mut row, mut row_start) = (0u32, 0u32);
            loop {
                let row_len = n32 - row;
                if k < row_start + row_len {
                    break;
                }
                row_start += row_len;
                row += 1;
            }
            let col = row + (k - row_start);
            (row << 16) | col
        });
        let sixteen = ctx.splat_u32(16);
        let mask = ctx.splat_u32(0xFFFF);
        let row = ctx.ishr(&ij, &sixteen);
        let col = ctx.iand(&ij, &mask);
        (row, col)
    }

    /// Accumulate this cell's deposits by scanning all tours directly from
    /// global memory (version 5).
    fn gather_plain(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) -> Reg<f32> {
        let n = self.bufs.n;
        let m = self.bufs.m;
        let stride = self.bufs.stride;
        let mut acc = ctx.splat_f32(0.0);
        for k in 0..m {
            let delta = self.ant_delta(ctx, gm, k);
            for s in 0..n {
                let c0 = ctx.ld_global_u32_uniform(gm, self.bufs.tours, k * stride + s);
                let c1 = ctx.ld_global_u32_uniform(gm, self.bufs.tours, k * stride + s + 1);
                self.deposit(ctx, &mut acc, c0, c1, delta);
            }
            ctx.lane_pass(MATCH.plus(STAGED).times(n as u64));
        }
        acc
    }

    /// Accumulate deposits with tour tiles staged in shared memory
    /// (versions 3–4).
    fn gather_tiled(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem, sh: ShPtr<u32>) -> Reg<f32> {
        let n = self.bufs.n;
        let m = self.bufs.m;
        let stride = self.bufs.stride;
        let lane = ctx.thread_idx();
        let mut acc = ctx.splat_f32(0.0);
        for k in 0..m {
            let delta = self.ant_delta(ctx, gm, k);
            let tiles = stride / THETA;
            for tile in 0..tiles {
                let base = k * stride + tile * THETA;
                // Cooperative, coalesced tile load.
                let base_reg = ctx.splat_u32(base);
                let g = ctx.iadd(&base_reg, &lane);
                let v = ctx.ld_global_u32(gm, self.bufs.tours, &g);
                ctx.sh_st_u32(sh, &lane, &v);
                let lane0 = ctx.lane_mask(0);
                let boundary = (base + THETA).min(k * stride + stride - 1);
                let b_reg = ctx.splat_u32(boundary);
                let theta_reg = ctx.splat_u32(THETA);
                ctx.if_then(gm, &lane0, |ctx, gm| {
                    let bv = ctx.ld_global_u32(gm, self.bufs.tours, &b_reg);
                    ctx.sh_st_u32(sh, &theta_reg, &bv);
                });
                ctx.sync_threads();
                // Scan the staged tile (broadcast shared reads).
                let upto = if tile == tiles - 1 { n - tile * THETA } else { THETA };
                for s in 0..upto {
                    let c0 = ctx.sh_ld_u32_uniform(sh, s);
                    let c1 = ctx.sh_ld_u32_uniform(sh, s + 1);
                    self.deposit(ctx, &mut acc, c0, c1, delta);
                }
                ctx.lane_pass(MATCH.plus(STAGED).times(upto as u64));
                ctx.sync_threads();
            }
        }
        acc
    }

    /// Ant `k`'s deposit `δ = 1/L_k`: a broadcast load of its length and
    /// the division, with the splats of `k` and `1.0` charged as [`DELTA`].
    fn ant_delta(&self, ctx: &mut BlockCtx, gm: &GlobalMem, k: u32) -> f32 {
        let len = ctx.ld_global_f32_uniform(gm, self.bufs.lengths, k);
        ctx.lane_pass(DELTA);
        1.0 / len
    }

    /// One tour step's deposit: `acc += delta` on the in-range lanes whose
    /// cell is the edge `(c0, c1)` in either direction, the lanes the
    /// branch-free match selects (the module docs say why that is exact).
    fn deposit(&self, ctx: &BlockCtx, acc: &mut Reg<f32>, c0: u32, c1: u32, delta: f32) {
        let n = self.bufs.n;
        if c0 >= n || c1 >= n {
            return;
        }
        let (lo, hi) = (c0.min(c1), c0.max(c1));
        let cells = match self.mode {
            // Row `lo` of the upper triangle starts at `lo*n - lo*(lo-1)/2`.
            ScatterMode::TiledReduced => [Some(lo * (2 * n + 1 - lo) / 2 + hi - lo), None],
            _ => [Some(c0 * n + c1), (c0 != c1).then_some(c1 * n + c0)],
        };
        let first = ctx.block_idx * ctx.block_dim;
        for cell in cells.into_iter().flatten() {
            if let Some(l) = cell.checked_sub(first).filter(|&l| l < ctx.block_dim) {
                let l = l as usize;
                acc.set_lane(l, acc.lane(l) + delta);
            }
        }
    }
}

/// One tour step of the branch-free edge match: 4 compares, 3 predicate
/// ops, a zero splat, a select and an `fadd`.
const MATCH: Tally = Tally::NONE.op(Op::Mov, 2).op(Op::FAlu, 5).op(Op::IAlu, 3);

/// An ant's deposit: the splats of its index and of `1.0`, and the
/// division (an SFU reciprocal and a multiply).
const DELTA: Tally = Tally::NONE.op(Op::Mov, 2).op(Op::Sfu, 1).op(Op::FMul, 1);

/// The 2 splats of one tour step: of a staged tile's two cities, or of
/// the plain row's two tour addresses.
const STAGED: Tally = Tally::NONE.op(Op::Mov, 2);

impl Kernel for ScatterGatherKernel {
    fn name(&self) -> &'static str {
        match self.mode {
            ScatterMode::Plain => "pheromone_scatter_gather",
            ScatterMode::Tiled => "pheromone_scatter_gather_tiled",
            ScatterMode::TiledReduced => "pheromone_reduction",
        }
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let cell_raw = ctx.global_thread_idx();
        let limit = ctx.splat_u32(self.cells());
        let in_range = ctx.ult(&cell_raw, &limit);
        // Out-of-range lanes of the last block clamp to a valid cell and
        // keep running: the tiled variants need *every* lane of the block
        // for the cooperative tile loads and barriers (an early exit would
        // desynchronise `__syncthreads` in real CUDA too). Only the final
        // read-modify-write is predicated.
        let last = ctx.splat_u32(self.cells() - 1);
        let cell = ctx.imin(&cell_raw, &last);

        let sh = match self.mode {
            ScatterMode::Plain => None,
            _ => Some(ctx.shared_alloc_u32(THETA as usize + 1)),
        };

        // Cell coordinates.
        let (i, j) = match self.mode {
            ScatterMode::TiledReduced => self.triangle_coords(ctx, &cell),
            _ => {
                let n_reg = ctx.splat_u32(n);
                ctx.charge(Op::IDivMod, 2);
                let i = ctx.idiv(&cell, &n_reg);
                let j = ctx.imod(&cell, &n_reg);
                (i, j)
            }
        };

        let acc = match self.mode {
            ScatterMode::Plain => self.gather_plain(ctx, gm),
            _ => self.gather_tiled(ctx, gm, sh.expect("allocated above")),
        };

        ctx.if_then(gm, &in_range, |ctx, gm| {
            // Fused evaporation + deposit: tau = tau*(1-rho) + acc.
            let n_reg = ctx.splat_u32(n);
            let keep = ctx.splat_f32(1.0 - self.rho);
            let ri = ctx.imul(&i, &n_reg);
            let idx_fwd = ctx.iadd(&ri, &j);
            let tau = ctx.ld_global_f32(gm, self.bufs.tau, &idx_fwd);
            let out = ctx.fma(&tau, &keep, &acc);
            ctx.st_global_f32(gm, self.bufs.tau, &idx_fwd, &out);

            if self.mode == ScatterMode::TiledReduced {
                // Mirror cell (skip the diagonal to avoid double-writing).
                let off_diag = ctx.une(&i, &j);
                ctx.if_then(gm, &off_diag, |ctx, gm| {
                    let rj = ctx.imul(&j, &n_reg);
                    let idx_bwd = ctx.iadd(&rj, &i);
                    let tau_b = ctx.ld_global_f32(gm, self.bufs.tau, &idx_bwd);
                    let out_b = ctx.fma(&tau_b, &keep, &acc);
                    ctx.st_global_f32(gm, self.bufs.tau, &idx_bwd, &out_b);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::pheromone::atomic::EvaporationKernel;
    use crate::gpu::tour::task::{RngKind, TabuPlacement, TaskOpts, TaskTourKernel};
    use crate::params::AcoParams;
    use aco_tsp::generator::uniform_random;

    fn build_colony(n: usize, dev: &DeviceSpec) -> (GlobalMem, ColonyBuffers) {
        let inst = uniform_random("sg", n, 1000.0, 17);
        let mut gm = GlobalMem::new();
        let bufs = ColonyBuffers::allocate(&mut gm, &inst, &AcoParams::default().nn(8));
        let ck = crate::gpu::choice::ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
        launch(dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
        bufs.clear_visited(&mut gm);
        let tk = TaskTourKernel {
            bufs,
            opts: TaskOpts {
                use_choice_table: true,
                rng: RngKind::DeviceLcg,
                use_nn_list: true,
                tabu: TabuPlacement::Global,
                texture: false,
                block: 128,
            },
            alpha: 1.0,
            beta: 2.0,
            seed: 2,
            iteration: 0,
        };
        launch(dev, &tk.config(dev), &tk, &mut gm, SimMode::Full).unwrap();
        (gm, bufs)
    }

    /// Host reference: evaporate + deposit over the real (unpadded) edges.
    fn reference_update(gm: &GlobalMem, bufs: &ColonyBuffers, rho: f32) -> Vec<f32> {
        let n = bufs.n as usize;
        let tours = bufs.read_tours(gm);
        let lengths = bufs.read_lengths(gm);
        let mut tau: Vec<f32> = gm.f32(bufs.tau).iter().map(|&t| t * (1.0 - rho)).collect();
        for (a, t) in tours.iter().enumerate() {
            let dep = 1.0 / lengths[a];
            for s in 0..n {
                let (i, j) = (t[s] as usize, t[s + 1] as usize);
                tau[i * n + j] += dep;
                tau[j * n + i] += dep;
            }
        }
        tau
    }

    fn assert_tau_close(gm: &GlobalMem, bufs: &ColonyBuffers, want: &[f32], tol: f32) {
        for (idx, (&got, &w)) in gm.f32(bufs.tau).iter().zip(want.iter()).enumerate() {
            let rel = (got - w).abs() / w.abs().max(1e-12);
            assert!(rel < tol, "cell {idx}: {got} vs {w}");
        }
    }

    #[test]
    fn plain_scatter_matches_reference() {
        let dev = DeviceSpec::tesla_c1060();
        let (mut gm, bufs) = build_colony(24, &dev);
        let want = reference_update(&gm, &bufs, 0.5);
        let k = ScatterGatherKernel { bufs, rho: 0.5, mode: ScatterMode::Plain };
        launch(&dev, &k.config(), &k, &mut gm, SimMode::Full).unwrap();
        assert_tau_close(&gm, &bufs, &want, 2e-3);
    }

    #[test]
    fn tiled_scatter_matches_reference() {
        let dev = DeviceSpec::tesla_c1060();
        let (mut gm, bufs) = build_colony(24, &dev);
        let want = reference_update(&gm, &bufs, 0.5);
        let k = ScatterGatherKernel { bufs, rho: 0.5, mode: ScatterMode::Tiled };
        launch(&dev, &k.config(), &k, &mut gm, SimMode::Full).unwrap();
        assert_tau_close(&gm, &bufs, &want, 2e-3);
    }

    #[test]
    fn reduced_scatter_matches_reference() {
        let dev = DeviceSpec::tesla_m2050();
        let (mut gm, bufs) = build_colony(24, &dev);
        let want = reference_update(&gm, &bufs, 0.5);
        let k = ScatterGatherKernel { bufs, rho: 0.5, mode: ScatterMode::TiledReduced };
        launch(&dev, &k.config(), &k, &mut gm, SimMode::Full).unwrap();
        assert_tau_close(&gm, &bufs, &want, 2e-3);
    }

    #[test]
    fn access_count_ordering_matches_paper() {
        // l = 2n^4 (plain)  >  gamma = 2n^4/theta (tiled)  >  rho = n^4/theta (reduced)
        // (n = 64: large enough that block-granular tile staging shows the
        // asymptotic half-threads saving, small enough to simulate fully.)
        let dev = DeviceSpec::tesla_c1060();
        let (mut gm, bufs) = build_colony(64, &dev);
        let run_mode = |gm: &mut GlobalMem, mode| {
            let k = ScatterGatherKernel { bufs, rho: 0.5, mode };
            launch(&dev, &k.config(), &k, gm, SimMode::Full).unwrap()
        };
        let plain = run_mode(&mut gm, ScatterMode::Plain);
        let tiled = run_mode(&mut gm, ScatterMode::Tiled);
        let reduced = run_mode(&mut gm, ScatterMode::TiledReduced);
        assert!(plain.stats.ld_transactions > 5.0 * tiled.stats.ld_transactions);
        // Half the cells means half the blocks asymptotically; at n = 32
        // the block counts only drop 4 -> 3 (whole blocks stage tours), so
        // require the ratio to exceed that floor.
        assert!(tiled.stats.ld_transactions > 1.2 * reduced.stats.ld_transactions);
        assert!(plain.time.total_ms > tiled.time.total_ms);
        assert!(tiled.time.total_ms > reduced.time.total_ms);
    }

    #[test]
    fn scatter_is_slower_than_atomics_as_paper_concludes() {
        // "those techniques are even more costly than applying atomic
        // operations directly" (Section VI).
        let dev = DeviceSpec::tesla_c1060();
        let (mut gm, bufs) = build_colony(32, &dev);
        let ev = EvaporationKernel { bufs, rho: 0.5 };
        let r_ev = launch(&dev, &ev.config(), &ev, &mut gm, SimMode::Full).unwrap();
        let at = crate::gpu::pheromone::atomic::AtomicDepositKernel { bufs, use_shared: true };
        let r_at = launch(&dev, &at.config(), &at, &mut gm, SimMode::Full).unwrap();
        let atomic_total = r_ev.time.total_ms + r_at.time.total_ms;
        let sg = ScatterGatherKernel { bufs, rho: 0.5, mode: ScatterMode::Plain };
        let r_sg = launch(&dev, &sg.config(), &sg, &mut gm, SimMode::Full).unwrap();
        assert!(
            r_sg.time.total_ms > 3.0 * atomic_total,
            "scatter {} should dwarf atomics {}",
            r_sg.time.total_ms,
            atomic_total
        );
    }
}

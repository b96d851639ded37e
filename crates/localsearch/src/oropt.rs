//! The simulated-device `or_opt` kernel family.
//!
//! [`crate::LocalSearch::OrOpt`] used to run on the host with a device
//! write-back on GPU backends; this family executes the pass on the
//! device, in the same Propose/Select/Apply shape as the `two_opt`
//! family. One improvement **round** is four launches driven by
//! [`run_or_opt`], over a *window* of ant rows (one ant for the
//! iteration-best scope, all `m` for the all-ants hybrid — either way
//! `O(rounds)` launches per pass):
//!
//! 1. [`PosKernel`] — the position scatter shared with the `two_opt`
//!    family, launched under the profiler name `or_opt_pos`.
//! 2. [`OrOptProposeKernel`] — **one segment start per thread**: thread
//!    `p` evaluates relocating the segments starting at tour position
//!    `p` (lengths 1–3, forward or reversed) after each nearest
//!    neighbour of the segment head, exactly the candidate set of
//!    [`crate::cpu::or_opt`]. The CPU pass is *first*-improvement in
//!    `(seg_len, p, rank)` scan order, so instead of a gain reduction
//!    the family reduces a **scan key** — `((seg_len-1)·(n+1) + p)·nn +
//!    rank`, whose numeric order *is* the scan order — to its minimum:
//!    the move the CPU sweep would have applied.
//! 3. [`OrOptSelectKernel`] — one block per windowed ant folds its
//!    per-block keys into the ant's chosen move.
//! 4. [`OrOptApplyKernel`] — splice the segment after the candidate
//!    (re-deriving the reversed flag from the same `f32` cost
//!    expressions), rebuild the ant's row through a device scratch row,
//!    and settle the ant's device length.
//!
//! **CPU equivalence.** All costs are sums/differences of integer
//! distances; at TSPLIB scales every intermediate is an integer below
//! 2²⁴, where `f32` arithmetic is exact, so the device comparisons
//! (`removal > 0`, `fwd <= rev`, `removal - cost > 0`) decide exactly
//! as the CPU's `i64` ones and the chosen key is the CPU's chosen move.
//! On the same input tours both sides produce the **same order arrays**
//! — pinned by the tests below and the cross-crate suite. Every launch
//! goes through [`aco_simt::launch_threads`], so counters, modeled
//! times and memory are bit-identical at any host `exec_threads` count.
//!
//! **Host cost.** The propose kernel's candidate loop runs as one lane
//! pass ([`aco_simt::lane_pass!`]) of `nn` trips per segment length: its
//! register instructions are charged as the tally counted from the pass
//! body over the eligible warps, the cost arithmetic and the first-move
//! selects run as host lanes, and only each trip's eight loads go through
//! the memory models, in program order. Both min-key reductions are one
//! [`aco_simt::sh_tree!`]. `tests/propose_oracle.rs` pins every counter,
//! modeled-time bit and written word on each round of full passes by
//! fingerprints recorded against the op-by-op kernel, and compares the
//! select kernel against the written-out level loop. The apply kernel's
//! splice and copy-back loops stay `loop_while`s with `with_mask` bodies,
//! which [`BlockCtx::loop_pass`] would charge an extra `if` branch and its
//! divergence.

use aco_simt::prelude::*;
use aco_simt::{lane_pass, sh_tree, SimtError};

use crate::gpu::{LsRun, PosKernel, LANES, LS_BLOCK};

/// Device state of the `or_opt` family: colony buffers it reads plus
/// per-ant slices of its own scratch. `Copy` so kernels capture it.
#[derive(Debug, Clone, Copy)]
pub struct OrOptDev {
    /// Cities.
    pub n: u32,
    /// Candidate-list depth.
    pub nn: u32,
    /// Row stride of the per-ant tour array.
    pub stride: u32,
    /// `n x n` distances, f32.
    pub dist: DevicePtr<f32>,
    /// `m x stride` tours (improved in place).
    pub tours: DevicePtr<u32>,
    /// `m` tour lengths, f32 (gain-adjusted in place).
    pub lengths: DevicePtr<f32>,
    /// `n x nn` nearest-neighbour lists.
    pub nn_list: DevicePtr<u32>,
    /// `m x n` positions: `pos[ant*n + city] = index` in the ant's order.
    pub pos: DevicePtr<u32>,
    /// Per-block minimum scan key (`m x pgrid`, ant-major).
    pub block_key: DevicePtr<u32>,
    /// Per-block winning segment start.
    pub block_p: DevicePtr<u32>,
    /// Per-block winning segment length.
    pub block_seg: DevicePtr<u32>,
    /// Per-block winning candidate rank.
    pub block_rank: DevicePtr<u32>,
    /// Each ant's chosen key this round (`m`; `u32::MAX` = no move —
    /// the host's termination read).
    pub chosen_key: DevicePtr<u32>,
    /// Each ant's chosen segment start.
    pub chosen_p: DevicePtr<u32>,
    /// Each ant's chosen segment length.
    pub chosen_seg: DevicePtr<u32>,
    /// Each ant's chosen candidate rank.
    pub chosen_rank: DevicePtr<u32>,
    /// `m x n` rebuild scratch (the spliced order, copied back in the
    /// apply kernel's second phase).
    pub tmp: DevicePtr<u32>,
}

impl OrOptDev {
    /// Allocate the family's scratch next to an existing colony's
    /// buffers (distances / tours / lengths / candidate lists are
    /// borrowed from the colony, not copied), one slice per row of
    /// `lengths` — the same arguments as `TwoOptDev::allocate`.
    #[allow(clippy::too_many_arguments)]
    pub fn allocate(
        gm: &mut GlobalMem,
        n: u32,
        nn: u32,
        stride: u32,
        dist: DevicePtr<f32>,
        tours: DevicePtr<u32>,
        lengths: DevicePtr<f32>,
        nn_list: DevicePtr<u32>,
    ) -> Self {
        let m = gm.len_f32(lengths);
        let pgrid = n.div_ceil(LS_BLOCK) as usize;
        OrOptDev {
            n,
            nn,
            stride,
            dist,
            tours,
            lengths,
            nn_list,
            pos: gm.alloc_u32(m * n as usize),
            block_key: gm.alloc_u32(m * pgrid),
            block_p: gm.alloc_u32(m * pgrid),
            block_seg: gm.alloc_u32(m * pgrid),
            block_rank: gm.alloc_u32(m * pgrid),
            chosen_key: gm.alloc_u32(m),
            chosen_p: gm.alloc_u32(m),
            chosen_seg: gm.alloc_u32(m),
            chosen_rank: gm.alloc_u32(m),
            tmp: gm.alloc_u32(m * n as usize),
        }
    }

    /// Propose blocks per ant (one thread per segment start).
    pub fn pgrid(&self) -> u32 {
        self.n.div_ceil(LS_BLOCK)
    }

    /// Longest relocatable segment (the CPU pass's `3.min(n - 4)`).
    fn seg_max(&self) -> u32 {
        3.min(self.n.saturating_sub(4))
    }
}

/// Shared-memory tree reduction of `(key, p, seg, rank)` down to lane 0,
/// preferring the **lower** key — the first-improvement scan order — as
/// one [`BlockCtx::sh_tree`]. Keys are unique per move, so no tie-break
/// is needed. `emit` runs under the lane-0 mask with the winning values.
fn block_reduce_min_key(
    ctx: &mut BlockCtx,
    gm: &mut GlobalMem,
    key: &Reg<u32>,
    p: &Reg<u32>,
    seg: &Reg<u32>,
    rank: &Reg<u32>,
    emit: impl FnOnce(&mut BlockCtx, &mut GlobalMem, &Reg<u32>, &Reg<u32>, &Reg<u32>, &Reg<u32>),
) {
    let lane = ctx.thread_idx();
    let s_k = ctx.shared_alloc_u32(LS_BLOCK as usize);
    let s_p = ctx.shared_alloc_u32(LS_BLOCK as usize);
    let s_s = ctx.shared_alloc_u32(LS_BLOCK as usize);
    let s_r = ctx.shared_alloc_u32(LS_BLOCK as usize);
    ctx.sh_st_u32(s_k, &lane, key);
    ctx.sh_st_u32(s_p, &lane, p);
    ctx.sh_st_u32(s_s, &lane, seg);
    ctx.sh_st_u32(s_r, &lane, rank);
    ctx.sync_threads();
    sh_tree!(ctx, [s_k, s_p, s_s, s_r], |a, lo, hi| a.ult(hi.word(0), lo.word(0)));
    let lane0 = ctx.lane_mask(0);
    ctx.if_then(gm, &lane0, |ctx, gm| {
        let zero = ctx.splat_u32(0);
        let k = ctx.sh_ld_u32(s_k, &zero);
        let p = ctx.sh_ld_u32(s_p, &zero);
        let s = ctx.sh_ld_u32(s_s, &zero);
        let r = ctx.sh_ld_u32(s_r, &zero);
        emit(ctx, gm, &k, &p, &s, &r);
    });
}

/// Per-segment-start move proposal + per-block min-key reduction for a
/// window of ants (`pgrid` blocks per ant, ant-major).
pub struct OrOptProposeKernel {
    /// Family buffers.
    pub bufs: OrOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl OrOptProposeKernel {
    /// One thread per segment start per windowed ant; shared memory
    /// holds the four reduction arrays (key, p, seg, rank).
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants * self.bufs.pgrid(), LS_BLOCK)
            .regs(32)
            .shared(4 * LS_BLOCK * 4)
    }
}

impl Kernel for OrOptProposeKernel {
    fn name(&self) -> &'static str {
        "or_opt_propose"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let nn = self.bufs.nn;
        let per_ant = self.bufs.pgrid();
        let ant = self.first_ant + ctx.block_idx / per_ant;
        let blk = ctx.block_idx % per_ant;
        let base = ant * self.bufs.stride;
        let prow = ant * n;
        let off = ctx.splat_u32(blk * LS_BLOCK);
        let lane = ctx.thread_idx();
        let p = ctx.iadd(&off, &lane);
        let n_reg = ctx.splat_u32(n);
        let zero_f = ctx.splat_f32(0.0);
        let one_u = ctx.splat_u32(1);
        let base_reg = ctx.splat_u32(base);
        let prow_reg = ctx.splat_u32(prow);
        let nn_reg = ctx.splat_u32(nn);
        let max_u = ctx.splat_u32(u32::MAX);

        // Per-lane minimum scan key (sentinel MAX = no improving move),
        // with the winning (p, seg_len, rank) carried alongside.
        let mut best_key = max_u.clone();
        let mut best_p = ctx.splat_u32(0);
        let mut best_seg = ctx.splat_u32(1);
        let mut best_rank = ctx.splat_u32(0);

        // `prev` is shared by every segment length starting at p.
        let in_tour = ctx.ult(&p, &n_reg);
        ctx.branch(&in_tour);
        ctx.with_mask(gm, &in_tour, |ctx, gm| {
            let pn = ctx.iadd(&p, &n_reg);
            let pm1 = ctx.isub(&pn, &one_u);
            let pm1_over = ctx.ule(&n_reg, &pm1);
            let pm1_w = ctx.isub(&pm1, &n_reg);
            let prev_pos = ctx.select_u32(&pm1_over, &pm1_w, &pm1);
            let prev_g = ctx.iadd(&base_reg, &prev_pos);
            let prev = ctx.ld_global_u32(gm, self.bufs.tours, &prev_g);
            let p_nn = ctx.imul(&p, &nn_reg);

            for seg_len in 1..=self.bufs.seg_max() {
                // Eligible starts: p <= n - seg_len (the CPU loop's
                // inclusive upper bound).
                let bound = ctx.splat_u32(n - seg_len + 1);
                let elig = ctx.ult(&p, &bound);
                ctx.branch(&elig);
                ctx.with_mask(gm, &elig, |ctx, gm| {
                    let first_g = ctx.iadd(&base_reg, &p);
                    let first = ctx.ld_global_u32(gm, self.bufs.tours, &first_g);
                    let sm1 = ctx.splat_u32(seg_len - 1);
                    let last_pos = ctx.iadd(&p, &sm1);
                    let last_g = ctx.iadd(&base_reg, &last_pos);
                    let last = ctx.ld_global_u32(gm, self.bufs.tours, &last_g);
                    let s_reg = ctx.splat_u32(seg_len);
                    let next_raw = ctx.iadd(&p, &s_reg);
                    let next_over = ctx.ule(&n_reg, &next_raw);
                    let next_w = ctx.isub(&next_raw, &n_reg);
                    let next_pos = ctx.select_u32(&next_over, &next_w, &next_raw);
                    let next_g = ctx.iadd(&base_reg, &next_pos);
                    let next = ctx.ld_global_u32(gm, self.bufs.tours, &next_g);

                    // removal = d(prev, first) + d(last, next)
                    //         - d(prev, next); exact in f32 at integer
                    // distances (every term < 2^24).
                    let prev_row = ctx.imul(&prev, &n_reg);
                    let pf_idx = ctx.iadd(&prev_row, &first);
                    let d_pf = ctx.ld_tex_f32(gm, self.bufs.dist, &pf_idx);
                    let last_row = ctx.imul(&last, &n_reg);
                    let ln_idx = ctx.iadd(&last_row, &next);
                    let d_ln = ctx.ld_tex_f32(gm, self.bufs.dist, &ln_idx);
                    let pn_idx = ctx.iadd(&prev_row, &next);
                    let d_pn = ctx.ld_tex_f32(gm, self.bufs.dist, &pn_idx);
                    let rem_sum = ctx.fadd(&d_pf, &d_ln);
                    let removal = ctx.fsub(&rem_sum, &d_pn);
                    // `removal > 0`: the candidate loop reads its predicate.
                    ctx.fgt(&removal, &zero_f);

                    let first_nn = ctx.imul(&first, &nn_reg);
                    let first_row = ctx.imul(&first, &n_reg);
                    let seg_end = ctx.iadd(&p, &s_reg);
                    // Key base for this (seg_len, ·, ·) plane.
                    let plane = ctx.splat_u32((seg_len - 1) * (n + 1) * nn);
                    let key_p = ctx.iadd(&plane, &p_nn);

                    // The candidate loop, one lane pass of `nn` trips,
                    // each trip eight loads (`nn_list`, `pos`, `tours`,
                    // then five distances through the texture cache).
                    let (tours, dist) = (self.bufs.tours, self.bufs.dist);
                    let (mut c, mut cp, mut c_next) = ([0u32; LANES], [0u32; LANES], [0u32; LANES]);
                    let mut c_row = [0u32; LANES];
                    let [mut d_base, mut d_cf, mut d_lcn, mut d_cl] = [[0f32; LANES]; 4];
                    lane_pass!(ctx, |pass| {
                        let a = pass.alu();
                        pass.repeat(nn, |pass, k| {
                            let k = a.mov(k);
                            let nn_at = |l: usize| a.iadd(first_nn.lane(l), k);
                            pass.ld_global_u32(gm, self.bufs.nn_list, nn_at, |l, v| c[l] = v);
                            let pos_at = |l: usize| a.iadd(prow_reg.lane(l), c[l]);
                            pass.ld_global_u32(gm, self.bufs.pos, pos_at, |l, v| cp[l] = v);
                            let next_at = |l: usize| {
                                let q = a.iadd(cp[l], 1);
                                a.iadd(base, a.select(a.ule(n, q), a.isub(q, n), q))
                            };
                            pass.ld_global_u32(gm, tours, next_at, |l, v| c_next[l] = v);
                            let base_at = |l: usize| {
                                c_row[l] = a.imul(c[l], n);
                                a.iadd(c_row[l], c_next[l])
                            };
                            pass.ld_f32(gm, dist, true, base_at, |l, v| d_base[l] = v);
                            let cf_at = |l: usize| a.iadd(c_row[l], first.lane(l));
                            pass.ld_f32(gm, dist, true, cf_at, |l, v| d_cf[l] = v);
                            let lcn_at = |l: usize| a.iadd(last_row.lane(l), c_next[l]);
                            pass.ld_f32(gm, dist, true, lcn_at, |l, v| d_lcn[l] = v);
                            let cl_at = |l: usize| a.iadd(c_row[l], last.lane(l));
                            pass.ld_f32(gm, dist, true, cl_at, |l, v| d_cl[l] = v);
                            let fcn_at = |l: usize| a.iadd(first_row.lane(l), c_next[l]);
                            pass.ld_f32(gm, dist, true, fcn_at, |l, d_fcn| {
                                // fwd / rev / cost, mirroring the CPU
                                // expressions term for term. Candidates
                                // inside the segment or equal to `prev` are
                                // skipped (splicing after either is
                                // degenerate).
                                let start = p.lane(l);
                                let in_seg = a.ule(start, cp[l]) & a.ult(cp[l], seg_end.lane(l));
                                let usable = !(in_seg | a.ueq(c[l], prev.lane(l)));
                                let fwd = a.fsub(a.fadd(d_cf[l], d_lcn[l]), d_base[l]);
                                let rev = a.fsub(a.fadd(d_cl[l], d_fcn), d_base[l]);
                                let cost = a.select(a.fle(fwd, rev), fwd, rev);
                                let improving = a.fgt(a.fsub(removal.lane(l), cost), 0.0);
                                let key = a.iadd(key_p.lane(l), k);
                                // The predicate of `removal > 0`.
                                let rem_ok = removal.lane(l) > 0.0;
                                let valid =
                                    rem_ok & usable & improving & a.ult(key, best_key.lane(l));
                                let take =
                                    |x, best: &Reg<u32>| a.mov(a.select(valid, x, best.lane(l)));
                                best_key.set_lane(l, take(key, &best_key));
                                best_p.set_lane(l, take(start, &best_p));
                                best_seg.set_lane(l, take(seg_len, &best_seg));
                                best_rank.set_lane(l, take(k, &best_rank));
                            });
                        });
                    });
                });
            }
        });

        let entry = ant * per_ant + blk;
        block_reduce_min_key(
            ctx,
            gm,
            &best_key,
            &best_p,
            &best_seg,
            &best_rank,
            |ctx, gm, k, p, s, r| {
                let eidx = ctx.splat_u32(entry);
                ctx.st_global_u32(gm, self.bufs.block_key, &eidx, k);
                ctx.st_global_u32(gm, self.bufs.block_p, &eidx, p);
                ctx.st_global_u32(gm, self.bufs.block_seg, &eidx, s);
                ctx.st_global_u32(gm, self.bufs.block_rank, &eidx, r);
            },
        );
    }
}

/// Fold each windowed ant's per-block minima into its chosen move — one
/// block per ant.
pub struct OrOptSelectKernel {
    /// Family buffers.
    pub bufs: OrOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl OrOptSelectKernel {
    /// One block per windowed ant; threads stride over the entries.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants, LS_BLOCK).regs(18).shared(4 * LS_BLOCK * 4)
    }
}

impl Kernel for OrOptSelectKernel {
    fn name(&self) -> &'static str {
        "or_opt_select"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let entries = self.bufs.pgrid();
        let ant = self.first_ant + ctx.block_idx;
        let ebase = ctx.splat_u32(ant * entries);
        let lane = ctx.thread_idx();
        let e_reg = ctx.splat_u32(entries);
        let step = ctx.splat_u32(LS_BLOCK);
        let max_u = ctx.splat_u32(u32::MAX);
        let mut fold_k = max_u.clone();
        let mut fold_p = ctx.splat_u32(0);
        let mut fold_s = ctx.splat_u32(1);
        let mut fold_r = ctx.splat_u32(0);
        let mut idx = lane.clone();
        for _ in 0..entries.div_ceil(LS_BLOCK) {
            let in_range = ctx.ult(&idx, &e_reg);
            ctx.branch(&in_range);
            ctx.with_mask(gm, &in_range, |ctx, gm| {
                let g_idx = ctx.iadd(&ebase, &idx);
                let k2 = ctx.ld_global_u32(gm, self.bufs.block_key, &g_idx);
                let p2 = ctx.ld_global_u32(gm, self.bufs.block_p, &g_idx);
                let s2 = ctx.ld_global_u32(gm, self.bufs.block_seg, &g_idx);
                let r2 = ctx.ld_global_u32(gm, self.bufs.block_rank, &g_idx);
                let better = ctx.ult(&k2, &fold_k);
                let nk = ctx.select_u32(&better, &k2, &fold_k);
                ctx.assign_u32(&mut fold_k, &nk);
                let np = ctx.select_u32(&better, &p2, &fold_p);
                ctx.assign_u32(&mut fold_p, &np);
                let ns = ctx.select_u32(&better, &s2, &fold_s);
                ctx.assign_u32(&mut fold_s, &ns);
                let nr = ctx.select_u32(&better, &r2, &fold_r);
                ctx.assign_u32(&mut fold_r, &nr);
            });
            idx = ctx.iadd(&idx, &step);
        }
        block_reduce_min_key(ctx, gm, &fold_k, &fold_p, &fold_s, &fold_r, |ctx, gm, k, p, s, r| {
            let aidx = ctx.splat_u32(ant);
            ctx.st_global_u32(gm, self.bufs.chosen_key, &aidx, k);
            ctx.st_global_u32(gm, self.bufs.chosen_p, &aidx, p);
            ctx.st_global_u32(gm, self.bufs.chosen_seg, &aidx, s);
            ctx.st_global_u32(gm, self.bufs.chosen_rank, &aidx, r);
        });
    }
}

/// Apply each windowed ant's chosen relocation — one block per ant.
/// Phase 1 writes the spliced order into the ant's scratch row (the
/// closed form of the CPU `splice_segment` rebuild), phase 2 copies it
/// back after a block-wide sync; lane 0 settles the device length. An
/// ant with no chosen move (key = MAX) is an exact no-op.
pub struct OrOptApplyKernel {
    /// Family buffers.
    pub bufs: OrOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl OrOptApplyKernel {
    /// One block per windowed ant; threads stride over the order cells.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants, LS_BLOCK).regs(28)
    }
}

impl Kernel for OrOptApplyKernel {
    fn name(&self) -> &'static str {
        "or_opt_apply"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let nn = self.bufs.nn;
        let ant = self.first_ant + ctx.block_idx;
        let base = ant * self.bufs.stride;
        let prow = ant * n;
        let zero_u = ctx.splat_u32(0);
        let one_u = ctx.splat_u32(1);
        let n_reg = ctx.splat_u32(n);
        let nn_reg = ctx.splat_u32(nn);
        let base_reg = ctx.splat_u32(base);
        let prow_reg = ctx.splat_u32(prow);
        let ant_reg = ctx.splat_u32(ant);
        let max_u = ctx.splat_u32(u32::MAX);

        // The ant's chosen move (uniform broadcast loads). A no-move ant
        // holds the fold defaults (p = 0, seg = 1, rank = 0), so every
        // derived index below stays in range and the `active` mask
        // neutralises all writes.
        let key = ctx.ld_global_u32(gm, self.bufs.chosen_key, &ant_reg);
        let active = ctx.ult(&key, &max_u);
        let p = ctx.ld_global_u32(gm, self.bufs.chosen_p, &ant_reg);
        let seg = ctx.ld_global_u32(gm, self.bufs.chosen_seg, &ant_reg);
        let rank = ctx.ld_global_u32(gm, self.bufs.chosen_rank, &ant_reg);

        // Re-derive the endpoints and the reversed flag with the same
        // f32 expressions the propose kernel used — exact, so the flag
        // matches the CPU's `fwd <= rev` decision.
        let first_g = ctx.iadd(&base_reg, &p);
        let first = ctx.ld_global_u32(gm, self.bufs.tours, &first_g);
        let sm1 = ctx.isub(&seg, &one_u);
        let last_pos = ctx.iadd(&p, &sm1);
        let last_g = ctx.iadd(&base_reg, &last_pos);
        let last = ctx.ld_global_u32(gm, self.bufs.tours, &last_g);
        let pn = ctx.iadd(&p, &n_reg);
        let pm1 = ctx.isub(&pn, &one_u);
        let pm1_over = ctx.ule(&n_reg, &pm1);
        let pm1_w = ctx.isub(&pm1, &n_reg);
        let prev_pos = ctx.select_u32(&pm1_over, &pm1_w, &pm1);
        let prev_g = ctx.iadd(&base_reg, &prev_pos);
        let prev = ctx.ld_global_u32(gm, self.bufs.tours, &prev_g);
        let next_raw = ctx.iadd(&p, &seg);
        let next_over = ctx.ule(&n_reg, &next_raw);
        let next_w = ctx.isub(&next_raw, &n_reg);
        let next_pos = ctx.select_u32(&next_over, &next_w, &next_raw);
        let next_g = ctx.iadd(&base_reg, &next_pos);
        let next = ctx.ld_global_u32(gm, self.bufs.tours, &next_g);

        let first_nn = ctx.imul(&first, &nn_reg);
        let l_idx = ctx.iadd(&first_nn, &rank);
        let c = ctx.ld_global_u32(gm, self.bufs.nn_list, &l_idx);
        let cp_idx = ctx.iadd(&prow_reg, &c);
        let cp = ctx.ld_global_u32(gm, self.bufs.pos, &cp_idx);
        let cp1 = ctx.iadd(&cp, &one_u);
        let cp1_over = ctx.ule(&n_reg, &cp1);
        let cp1_w = ctx.isub(&cp1, &n_reg);
        let cn_pos = ctx.select_u32(&cp1_over, &cp1_w, &cp1);
        let cn_g = ctx.iadd(&base_reg, &cn_pos);
        let c_next = ctx.ld_global_u32(gm, self.bufs.tours, &cn_g);

        let prev_row = ctx.imul(&prev, &n_reg);
        let pf_idx = ctx.iadd(&prev_row, &first);
        let d_pf = ctx.ld_tex_f32(gm, self.bufs.dist, &pf_idx);
        let last_row = ctx.imul(&last, &n_reg);
        let ln_idx = ctx.iadd(&last_row, &next);
        let d_ln = ctx.ld_tex_f32(gm, self.bufs.dist, &ln_idx);
        let pn_idx = ctx.iadd(&prev_row, &next);
        let d_pn = ctx.ld_tex_f32(gm, self.bufs.dist, &pn_idx);
        let rem_sum = ctx.fadd(&d_pf, &d_ln);
        let removal = ctx.fsub(&rem_sum, &d_pn);

        let c_row = ctx.imul(&c, &n_reg);
        let ccn_idx = ctx.iadd(&c_row, &c_next);
        let d_base = ctx.ld_tex_f32(gm, self.bufs.dist, &ccn_idx);
        let cf_idx = ctx.iadd(&c_row, &first);
        let d_cf = ctx.ld_tex_f32(gm, self.bufs.dist, &cf_idx);
        let first_row = ctx.imul(&first, &n_reg);
        let lcn_idx = ctx.iadd(&last_row, &c_next);
        let d_lcn = ctx.ld_tex_f32(gm, self.bufs.dist, &lcn_idx);
        let cl_idx = ctx.iadd(&c_row, &last);
        let d_cl = ctx.ld_tex_f32(gm, self.bufs.dist, &cl_idx);
        let fcn_idx = ctx.iadd(&first_row, &c_next);
        let d_fcn = ctx.ld_tex_f32(gm, self.bufs.dist, &fcn_idx);
        let fwd_sum = ctx.fadd(&d_cf, &d_lcn);
        let fwd = ctx.fsub(&fwd_sum, &d_base);
        let rev_sum = ctx.fadd(&d_cl, &d_fcn);
        let rev = ctx.fsub(&rev_sum, &d_base);
        let take_fwd = ctx.fle(&fwd, &rev);
        let cost = ctx.select_f32(&take_fwd, &fwd, &rev);
        let gain = ctx.fsub(&removal, &cost);

        // ci: position of c within the remaining cycle seg[j] =
        // old[(p + seg + j) mod n]  →  ci = (cp + n - p - seg) mod n.
        let cpn = ctx.iadd(&cp, &n_reg);
        let ci_raw = ctx.isub(&cpn, &next_raw); // cp + n - (p + seg)
        let ci_over = ctx.ule(&n_reg, &ci_raw);
        let ci_w = ctx.isub(&ci_raw, &n_reg);
        let ci = ctx.select_u32(&ci_over, &ci_w, &ci_raw);
        let ci_seg = ctx.iadd(&ci, &seg);

        // Phase 1: build the spliced order into the scratch row.
        //   i <= ci            → old[(p + seg + i) mod n]
        //   ci < i <= ci + seg → segment cell (reversed or forward)
        //   i > ci + seg       → old[(p + i) mod n]
        let mut i = ctx.thread_idx();
        let step = ctx.splat_u32(LS_BLOCK);
        ctx.loop_while(gm, |ctx, gm| {
            let cont = ctx.ult(&i, &n_reg).and(&active);
            ctx.with_mask(gm, &cont, |ctx, gm| {
                let case1 = ctx.ule(&i, &ci);
                let case12 = ctx.ule(&i, &ci_seg);
                // Source index, case 1: (p + seg + i) mod n.
                let i1_raw = ctx.iadd(&next_raw, &i); // p + seg + i < 2n
                let i1_over = ctx.ule(&n_reg, &i1_raw);
                let i1_w = ctx.isub(&i1_raw, &n_reg);
                let i1 = ctx.select_u32(&i1_over, &i1_w, &i1_raw);
                // Case 2: s = i - ci - 1 (clamped for other lanes), then
                // p + s forward or p + seg - 1 - s reversed.
                let s_raw = ctx.isub(&i, &ci);
                let s_m1 = ctx.isub(&s_raw, &one_u);
                let in2 = case12.and(&case1.not());
                let s_eff = ctx.select_u32(&in2, &s_m1, &zero_u);
                let i2f = ctx.iadd(&p, &s_eff);
                let last_pos2 = ctx.iadd(&p, &sm1);
                let i2r = ctx.isub(&last_pos2, &s_eff);
                let i2 = ctx.select_u32(&take_fwd, &i2f, &i2r);
                // Case 3: (p + i) mod n.
                let i3_raw = ctx.iadd(&p, &i);
                let i3_over = ctx.ule(&n_reg, &i3_raw);
                let i3_w = ctx.isub(&i3_raw, &n_reg);
                let i3 = ctx.select_u32(&i3_over, &i3_w, &i3_raw);
                let src23 = ctx.select_u32(&case12, &i2, &i3);
                let src = ctx.select_u32(&case1, &i1, &src23);
                let src_g = ctx.iadd(&base_reg, &src);
                let city = ctx.ld_global_u32(gm, self.bufs.tours, &src_g);
                let dst = ctx.iadd(&prow_reg, &i);
                ctx.st_global_u32(gm, self.bufs.tmp, &dst, &city);
            });
            i = ctx.iadd(&i, &step);
            cont
        });
        ctx.sync_threads();

        // Phase 2: copy the rebuilt order back into the tour row.
        let mut j = ctx.thread_idx();
        ctx.loop_while(gm, |ctx, gm| {
            let cont = ctx.ult(&j, &n_reg).and(&active);
            ctx.with_mask(gm, &cont, |ctx, gm| {
                let src = ctx.iadd(&prow_reg, &j);
                let city = ctx.ld_global_u32(gm, self.bufs.tmp, &src);
                let dst = ctx.iadd(&base_reg, &j);
                ctx.st_global_u32(gm, self.bufs.tours, &dst, &city);
            });
            j = ctx.iadd(&j, &step);
            cont
        });

        // Lane 0 of an active ant: settle the device-side length.
        let lane0 = ctx.lane_mask(0).and(&active);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            let len = ctx.ld_global_f32(gm, self.bufs.lengths, &ant_reg);
            let new_len = ctx.fsub(&len, &gain);
            ctx.st_global_f32(gm, self.bufs.lengths, &ant_reg, &new_len);
        });
    }
}

/// One proposal round (position-scatter, propose, select) over the
/// window, folded into `run`.
#[allow(clippy::too_many_arguments)]
fn propose_round(
    run: &mut LsRun,
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: OrOptDev,
    first_ant: u32,
    num_ants: u32,
    mode: SimMode,
    threads: usize,
) -> Result<(), SimtError> {
    let pk = PosKernel {
        name: "or_opt_pos",
        n: bufs.n,
        stride: bufs.stride,
        tours: bufs.tours,
        pos: bufs.pos,
        first_ant,
        num_ants,
    };
    run.launch(dev, &pk.config(), &pk, gm, mode, threads)?;
    let prk = OrOptProposeKernel { bufs, first_ant, num_ants };
    run.launch(dev, &prk.config(), &prk, gm, mode, threads)?;
    let sk = OrOptSelectKernel { bufs, first_ant, num_ants };
    run.launch(dev, &sk.config(), &sk, gm, mode, threads)
}

/// Run the `or_opt` kernel family over the window `first_ant ..
/// first_ant + num_ants` of tour rows until no windowed ant has an
/// improving relocation. Each round is one launch per phase regardless
/// of the window size — `O(rounds)` launches — and the host reads back
/// `num_ants` key words per round. Results are bit-identical to the CPU
/// pass per ant, at any host `threads` count.
pub fn run_or_opt(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: OrOptDev,
    first_ant: u32,
    num_ants: u32,
    threads: usize,
) -> Result<LsRun, SimtError> {
    let mut run = LsRun::new(dev);
    // The CPU pass is a no-op below 5 cities (no segment both removable
    // and reinsertable); mirror that without a launch.
    if bufs.n < 5 || num_ants == 0 {
        return Ok(run);
    }
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    loop {
        propose_round(&mut run, dev, gm, bufs, first_ant, num_ants, SimMode::Full, threads)?;
        run.rounds += 1;
        let improving =
            gm.u32(bufs.chosen_key)[window.clone()].iter().filter(|&&k| k != u32::MAX).count();
        if improving == 0 {
            break;
        }
        let ak = OrOptApplyKernel { bufs, first_ant, num_ants };
        run.launch(dev, &ak.config(), &ak, gm, SimMode::Full, threads)?;
        run.moves += improving as u32;
    }
    Ok(run)
}

/// Modeled milliseconds of one windowed proposal round (pos + propose +
/// select) of the `or_opt` family — the cost-model probe. Pure timing:
/// no move is applied, tours are untouched (the pos kernel only
/// refreshes its own scratch and the θ-padding).
pub fn probe_or_round_ms(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: OrOptDev,
    first_ant: u32,
    num_ants: u32,
    mode: SimMode,
) -> Result<f64, SimtError> {
    if bufs.n < 5 || num_ants == 0 {
        return Ok(0.0);
    }
    let mut run = LsRun::new(dev);
    propose_round(&mut run, dev, gm, bufs, first_ant, num_ants, mode, 1)?;
    Ok(run.ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{or_opt, LsScratch};
    use crate::gpu::tests::{device_setup, random_tours};
    use aco_tsp::{uniform_random, NearestNeighborLists, Tour};
    use rand::SeedableRng;

    #[test]
    fn kernel_family_matches_cpu_or_opt_exactly() {
        for (n, seed, depth, m) in
            [(32usize, 7u64, 8usize, 4usize), (61, 21, 12, 5), (96, 3, 16, 3)]
        {
            let inst = uniform_random("oropt-gpu", n, 1000.0, seed);
            let nn = NearestNeighborLists::build(inst.matrix(), depth).unwrap();
            let tours = random_tours(n, m, seed ^ 0x5A);
            let stride = ((n + 1) as u32).next_multiple_of(256);
            let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, OrOptDev::allocate);

            let run =
                run_or_opt(&DeviceSpec::tesla_m2050(), &mut gm, bufs, 0, m as u32, 1).unwrap();

            let mut total_moves = 0usize;
            for (a, t) in tours.iter().enumerate() {
                let mut host = t.clone();
                let mut scratch = LsScratch::new();
                total_moves += or_opt(&mut host, inst.matrix(), &nn, &mut scratch);
                let row = &gm.u32(bufs.tours)[a * stride as usize..a * stride as usize + n];
                assert_eq!(
                    row,
                    host.order(),
                    "n={n} seed={seed} ant={a}: device and host tours must be identical"
                );
                let exact = host.length(inst.matrix()) as f32;
                let dev_len = gm.f32(bufs.lengths)[a];
                assert!(
                    (dev_len - exact).abs() <= exact * 1e-5,
                    "ant {a}: device length {dev_len} vs exact {exact}"
                );
            }
            assert_eq!(run.moves as usize, total_moves, "n={n}: same total move count");
            assert!(run.moves > 0, "random tours on {n} cities must admit relocations");
        }
    }

    #[test]
    fn windowed_pass_improves_only_the_window() {
        let n = 48usize;
        let inst = uniform_random("oropt-win", n, 900.0, 5);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let tours = random_tours(n, 3, 9);
        let stride = ((n + 1) as u32).next_multiple_of(256);
        let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, OrOptDev::allocate);
        let run = run_or_opt(&DeviceSpec::tesla_m2050(), &mut gm, bufs, 1, 1, 1).unwrap();
        assert!(run.moves > 0);
        // Ant 1 matches the CPU pass; ants 0 and 2 are untouched.
        let mut host = tours[1].clone();
        let mut scratch = LsScratch::new();
        or_opt(&mut host, inst.matrix(), &nn, &mut scratch);
        let row1 = &gm.u32(bufs.tours)[stride as usize..stride as usize + n];
        assert_eq!(row1, host.order());
        for a in [0usize, 2] {
            let row = &gm.u32(bufs.tours)[a * stride as usize..a * stride as usize + n];
            assert_eq!(row, tours[a].order(), "ant {a} outside the window must not move");
        }
    }

    #[test]
    fn kernel_family_is_bit_identical_at_any_exec_thread_count() {
        let n = 48usize;
        let m = 4usize;
        let inst = uniform_random("oropt-thr", n, 900.0, 5);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let tours = random_tours(n, m, 9);
        let stride = ((n + 1) as u32).next_multiple_of(256);
        let dev = DeviceSpec::tesla_c1060();

        let (mut gm1, b1) = device_setup(&inst, &nn, &tours, stride, OrOptDev::allocate);
        let serial = run_or_opt(&dev, &mut gm1, b1, 0, m as u32, 1).unwrap();
        for threads in [2, 4, 16] {
            let (mut gm2, b2) = device_setup(&inst, &nn, &tours, stride, OrOptDev::allocate);
            let parallel = run_or_opt(&dev, &mut gm2, b2, 0, m as u32, threads).unwrap();
            assert_eq!(serial.rounds, parallel.rounds, "{threads} threads");
            assert_eq!(serial.moves, parallel.moves, "{threads} threads");
            assert_eq!(serial.stats, parallel.stats, "{threads} threads: counters");
            assert_eq!(serial.ms.to_bits(), parallel.ms.to_bits(), "{threads} threads: time");
            assert_eq!(gm1.u32(b1.tours), gm2.u32(b2.tours), "{threads} threads: memory");
        }
    }

    #[test]
    fn local_optimum_is_a_single_round_noop() {
        let n = 40usize;
        let inst = uniform_random("oropt-idem", n, 800.0, 2);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut tour = Tour::random(n, &mut rng);
        let mut scratch = LsScratch::new();
        or_opt(&mut tour, inst.matrix(), &nn, &mut scratch);
        let stride = ((n + 1) as u32).next_multiple_of(256);
        let (mut gm, bufs) =
            device_setup(&inst, &nn, std::slice::from_ref(&tour), stride, OrOptDev::allocate);
        let run = run_or_opt(&DeviceSpec::tesla_m2050(), &mut gm, bufs, 0, 1, 1).unwrap();
        assert_eq!(run.moves, 0, "a host Or-opt optimum admits no device move");
        assert_eq!(run.rounds, 1);
        assert_eq!(gm.u32(bufs.tours)[..n], *tour.order());
    }

    #[test]
    fn tiny_instances_are_noops_without_launches() {
        let inst = uniform_random("oropt-tiny", 4, 100.0, 1);
        let nn = NearestNeighborLists::build(inst.matrix(), 3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let tour = Tour::random(4, &mut rng);
        let stride = 256u32;
        let (mut gm, bufs) =
            device_setup(&inst, &nn, std::slice::from_ref(&tour), stride, OrOptDev::allocate);
        let run = run_or_opt(&DeviceSpec::tesla_m2050(), &mut gm, bufs, 0, 1, 1).unwrap();
        assert_eq!((run.rounds, run.moves), (0, 0));
        assert_eq!(run.ms, 0.0);
    }
}

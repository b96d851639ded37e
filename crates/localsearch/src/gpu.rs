//! The simulated-device `two_opt` kernel family, plus the pieces it
//! shares with the `or_opt` family in [`crate::oropt`].
//!
//! GPU colonies run the [`crate::LocalSearch::TwoOptNn`] pass *on the
//! device*, as the strongest GPU-ACO systems do (Skinderowicz 2016,
//! 2020), instead of round-tripping tours to the host. The family works
//! on a **window** of ant rows `first_ant .. first_ant + num_ants` — one
//! ant for the iteration-best scope, all `m` for the all-ants hybrid —
//! and one improvement **round** is one launch per phase whatever the
//! window size, driven by [`run_two_opt_window`]:
//!
//! 1. [`PosKernel`] — scatter `pos[ant*n + city] = index` for every
//!    windowed ant and refresh the θ-padding (positions `n..stride`
//!    repeat the possibly-new start city).
//! 2. [`TwoOptProposeKernel`] — **one proposed swap per thread**: thread
//!    `c` scans its city's nearest-neighbour candidates in both tour
//!    directions (distances through the texture cache, exactly like the
//!    paper's `*Tex` tour kernels), keeps its best improving move, sets
//!    the city's *don't-look bit* when nothing improves, and the block
//!    reduces `(gain, city)` pairs through shared memory to a per-block
//!    best (ties → lowest city).
//! 3. [`TwoOptSelectKernel`] — one block per windowed ant folds its
//!    per-block bests into the ant's chosen move (same tie-break).
//! 4. [`TwoOptApplyKernel`] — one block per windowed ant reverses the
//!    shorter side of the chosen segment (strided swaps, disjoint pairs),
//!    subtracts the gain from the ant's device length, and clears the
//!    don't-look bits of the four cities whose edges changed.
//!
//! Scratch is ant-major (one slice of position index, don't-look bits
//! and reduction entries per ant row), so a pass costs `O(rounds)`
//! launches no matter how many ants it improves. The host reads back one
//! gain word per windowed ant per round to decide termination.
//!
//! **CPU equivalence.** Per ant, a round executes exactly the round
//! algorithm of [`crate::cpu::two_opt_nn`]: identical candidate sets,
//! identical `f32` gain expression `(removed₁ + removed₂) - (added₁ +
//! added₂)`, identical strict-`>` scan order, identical `(gain, city)`
//! reduction tie-break, identical shorter-side reversal and don't-look
//! updates. The window keeps rounding until *no* ant proposes a move; an
//! ant whose own move stream dried up has every city asleep, so the
//! extra rounds are exact no-ops for it. On the same input tours both
//! sides therefore produce the **same order arrays**, pinned by the
//! tests below and the cross-crate suite. Every launch goes through
//! [`aco_simt::launch_threads`], so counters, modeled times and memory
//! are bit-identical at any host `exec_threads` count.
//!
//! **Host cost.** The propose kernel's forward and backward candidate
//! loops run as one lane pass ([`aco_simt::lane_pass!`]) of `2 * nn`
//! trips: their register instructions are charged as the tally counted
//! from the pass body over the awake warps, the gain arithmetic and the
//! best-move selects run as host lanes, and only each trip's six loads go
//! through the memory models, in program order. The propose and select
//! reductions are one [`aco_simt::sh_tree!`] each, whose level cost is
//! counted from its compare. Both are exact: `tests/propose_oracle.rs`
//! pins every counter, every modeled-time bit and every written word on
//! each round of full passes by fingerprints recorded against the op-by-op
//! kernels. Timed per kernel over full passes (8 ants, random tours,
//! n = 48 and 100, both devices), a round splits into propose 78–90% of
//! the host time, apply 5–10%, the position scatter 3–6% and select 2–5%.
//! The apply kernel's strided swap stays a `loop_while` with a `with_mask`
//! body: [`BlockCtx::loop_pass`] is not a drop-in for it, since it
//! charges an `if` branch and its divergence that the masked body does
//! not.

use aco_simt::prelude::*;
use aco_simt::{lane_pass, sh_tree, SimtError};

/// Threads per block for every kernel of both device families.
pub const LS_BLOCK: u32 = 128;

/// Slots of a per-lane host array: the block's lanes and the spare lane a
/// pass's tally is derived on.
pub(crate) const LANES: usize = LS_BLOCK as usize + 1;

/// Outcome of one device local-search pass over a window of ant rows.
#[derive(Debug, Clone)]
pub struct LsRun {
    /// Proposal rounds executed (the final round finds no move).
    pub rounds: u32,
    /// Moves applied (summed over the window).
    pub moves: u32,
    /// Total modeled milliseconds across every launch of the pass.
    pub ms: f64,
    /// Merged counters of every launch.
    pub stats: KernelStats,
}

impl LsRun {
    /// A pass that has launched nothing yet.
    pub(crate) fn new(dev: &DeviceSpec) -> Self {
        LsRun { rounds: 0, moves: 0, ms: 0.0, stats: KernelStats::for_sms(dev.sm_count as usize) }
    }

    /// Launch one kernel of the pass and fold in its time and counters.
    pub(crate) fn launch(
        &mut self,
        dev: &DeviceSpec,
        cfg: &LaunchConfig,
        kernel: &dyn Kernel,
        gm: &mut GlobalMem,
        mode: SimMode,
        threads: usize,
    ) -> Result<(), SimtError> {
        let r = launch_threads(dev, cfg, kernel, gm, mode, threads)?;
        self.ms += r.time.total_ms;
        self.stats.merge(&r.stats);
        Ok(())
    }
}

/// Device state of the 2-opt family: the colony buffers it reads
/// (distances, tours, lengths, candidate lists) plus per-ant slices of
/// the family's own scratch. `Copy` so kernels capture it like
/// `ColonyBuffers`.
#[derive(Debug, Clone, Copy)]
pub struct TwoOptDev {
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
    /// `m x n` don't-look bits (0 = awake).
    pub dont_look: DevicePtr<u32>,
    /// Per-block best gain (`m x pgrid` entries, ant-major).
    pub block_gain: DevicePtr<f32>,
    /// Per-block best move `a` (reverse starts after `a`).
    pub block_a: DevicePtr<u32>,
    /// Per-block best move `b` (reverse ends at `b`).
    pub block_b: DevicePtr<u32>,
    /// Per-block proposing city (the reduction tie-break key).
    pub block_city: DevicePtr<u32>,
    /// Each ant's chosen gain this round (`m` entries; the host's
    /// termination read).
    pub chosen_gain: DevicePtr<f32>,
    /// Each ant's chosen `a`.
    pub chosen_a: DevicePtr<u32>,
    /// Each ant's chosen `b`.
    pub chosen_b: DevicePtr<u32>,
}

impl TwoOptDev {
    /// Allocate the family's scratch next to an existing colony's
    /// buffers (distances / tours / lengths / candidate lists are
    /// borrowed from the colony, not copied), one slice per row of
    /// `lengths`.
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
        TwoOptDev {
            n,
            nn,
            stride,
            dist,
            tours,
            lengths,
            nn_list,
            pos: gm.alloc_u32(m * n as usize),
            dont_look: gm.alloc_u32(m * n as usize),
            block_gain: gm.alloc_f32(m * pgrid),
            block_a: gm.alloc_u32(m * pgrid),
            block_b: gm.alloc_u32(m * pgrid),
            block_city: gm.alloc_u32(m * pgrid),
            chosen_gain: gm.alloc_f32(m),
            chosen_a: gm.alloc_u32(m),
            chosen_b: gm.alloc_u32(m),
        }
    }

    /// Propose blocks per ant (one thread per city).
    pub fn pgrid(&self) -> u32 {
        self.n.div_ceil(LS_BLOCK)
    }
}

/// Position scatter + padding refresh for a window of ant rows — the
/// first phase of both device families. Blocks are ant-major, one thread
/// per padded tour cell. `name` is the family's profiler name
/// (`two_opt_pos` or `or_opt_pos`), so the two stay separate families.
pub struct PosKernel {
    /// Profiler name of the launching family.
    pub name: &'static str,
    /// Cities.
    pub n: u32,
    /// Row stride of the per-ant tour array.
    pub stride: u32,
    /// `m x stride` tours (padding refreshed in place).
    pub tours: DevicePtr<u32>,
    /// `m x n` positions written by the scatter.
    pub pos: DevicePtr<u32>,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl PosKernel {
    /// Scatter blocks per ant.
    fn per_ant(&self) -> u32 {
        self.stride.div_ceil(LS_BLOCK)
    }

    /// One thread per padded tour cell, window-wide.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants * self.per_ant(), LS_BLOCK).regs(10)
    }
}

impl Kernel for PosKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.n;
        let per_ant = self.per_ant();
        let ant = self.first_ant + ctx.block_idx / per_ant;
        let blk = ctx.block_idx % per_ant;
        let base = ant * self.stride;
        let row = ant * n; // this ant's pos slice
        let off = ctx.splat_u32(blk * LS_BLOCK);
        let lane = ctx.thread_idx();
        let idx = ctx.iadd(&off, &lane);
        let n_reg = ctx.splat_u32(n);
        let in_n = ctx.ult(&idx, &n_reg);
        let base_reg = ctx.splat_u32(base);
        let row_reg = ctx.splat_u32(row);
        let g_idx = ctx.iadd(&base_reg, &idx);
        ctx.if_then(gm, &in_n, |ctx, gm| {
            let city = ctx.ld_global_u32(gm, self.tours, &g_idx);
            let p_idx = ctx.iadd(&row_reg, &city);
            ctx.st_global_u32(gm, self.pos, &p_idx, &idx);
        });
        // Padding cells repeat the (possibly new) start city, so the
        // pheromone kernels keep seeing their harmless diagonal edges.
        let stride_reg = ctx.splat_u32(self.stride);
        let in_pad = ctx.ult(&idx, &stride_reg).and(&in_n.not());
        ctx.if_then(gm, &in_pad, |ctx, gm| {
            let start_idx = ctx.splat_u32(base);
            let start = ctx.ld_global_u32(gm, self.tours, &start_idx);
            ctx.st_global_u32(gm, self.tours, &g_idx, &start);
        });
    }
}

/// Per-city move proposal + per-block best-improvement reduction for a
/// window of ants (`pgrid` blocks per ant, ant-major).
pub struct TwoOptProposeKernel {
    /// Family buffers.
    pub bufs: TwoOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl TwoOptProposeKernel {
    /// One thread per city per windowed ant; shared memory holds the
    /// four reduction arrays (gain, a, b, proposing city).
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants * self.bufs.pgrid(), LS_BLOCK)
            .regs(30)
            .shared(4 * LS_BLOCK * 4)
    }
}

impl Kernel for TwoOptProposeKernel {
    fn name(&self) -> &'static str {
        "two_opt_propose"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let nn = self.bufs.nn;
        let per_ant = self.bufs.pgrid();
        let ant = self.first_ant + ctx.block_idx / per_ant;
        let blk = ctx.block_idx % per_ant;
        let base = ant * self.bufs.stride;
        let prow = ant * n; // this ant's pos / don't-look slice
        let off = ctx.splat_u32(blk * LS_BLOCK);
        let lane = ctx.thread_idx();
        let tid = ctx.iadd(&off, &lane);
        let n_reg = ctx.splat_u32(n);
        let zero_f = ctx.splat_f32(0.0);
        let zero_u = ctx.splat_u32(0);
        let one_u = ctx.splat_u32(1);
        let base_reg = ctx.splat_u32(base);
        let prow_reg = ctx.splat_u32(prow);
        let nm1 = ctx.splat_u32(n - 1);

        // Per-lane best move; lanes out of range or asleep keep the
        // sentinel (gain 0) and lose every reduction comparison.
        let mut best_g = ctx.splat_f32(0.0);
        let mut best_a = ctx.splat_u32(0);
        let mut best_b = ctx.splat_u32(0);

        let in_range = ctx.ult(&tid, &n_reg);
        ctx.if_then(gm, &in_range, |ctx, gm| {
            let dl_idx = ctx.iadd(&prow_reg, &tid);
            let look = ctx.ld_global_u32(gm, self.bufs.dont_look, &dl_idx);
            let awake = ctx.ueq(&look, &zero_u);
            ctx.branch(&awake);
            ctx.with_mask(gm, &awake, |ctx, gm| {
                // succ(c) / pred(c) positions via the scattered index.
                let mp_idx = ctx.iadd(&prow_reg, &tid);
                let my_pos = ctx.ld_global_u32(gm, self.bufs.pos, &mp_idx);
                let p_plus = ctx.iadd(&my_pos, &one_u);
                let wrap_s = ctx.ueq(&p_plus, &n_reg);
                let sp = ctx.select_u32(&wrap_s, &zero_u, &p_plus);
                let sp_g = ctx.iadd(&base_reg, &sp);
                let s1 = ctx.ld_global_u32(gm, self.bufs.tours, &sp_g);
                let wrap_p = ctx.ueq(&my_pos, &zero_u);
                let p_minus = ctx.isub(&my_pos, &one_u);
                let pp = ctx.select_u32(&wrap_p, &nm1, &p_minus);
                let pp_g = ctx.iadd(&base_reg, &pp);
                let p1 = ctx.ld_global_u32(gm, self.bufs.tours, &pp_g);

                let row = ctx.imul(&tid, &n_reg);
                let nn_reg = ctx.splat_u32(nn);
                let nn_row = ctx.imul(&tid, &nn_reg);

                // Forward edge (c1, succ c1): removed length d1.
                let s1_idx = ctx.iadd(&row, &s1);
                let d1 = ctx.ld_tex_f32(gm, self.bufs.dist, &s1_idx);
                // Backward edge (pred c1, c1): removed length d1p.
                let p1_row = ctx.imul(&p1, &n_reg);
                let p1_idx = ctx.iadd(&p1_row, &tid);
                let d1p = ctx.ld_tex_f32(gm, self.bufs.dist, &p1_idx);

                // Scan order matters for exact CPU equivalence: ALL
                // forward moves first, then all backward moves — the
                // order `cpu::best_move_for_city` evaluates — so a
                // forward/backward move with exactly equal f32 gain
                // resolves to the same winner on both sides (strict `>`
                // keeps the earlier candidate). Both loops are one lane
                // pass of `2 * nn` trips, each trip six loads (the
                // distances through the texture cache).
                let dist = self.bufs.dist;
                let (mut c2, mut pos2, mut end2) = ([0u32; LANES], [0u32; LANES], [0u32; LANES]);
                let (mut dcc, mut rem2) = ([0f32; LANES], [0f32; LANES]);
                lane_pass!(ctx, |pass| {
                    let a = pass.alu();
                    for backward in [false, true] {
                        // Forward move: remove (c1, s1) and (c2, s2), add
                        // (c1, c2) and (s1, s2) — reverse after a = c1 up
                        // to b = c2. Backward move: remove (p1, c1) and
                        // (p2, c2), add (c1, c2) and (p1, p2) — reverse
                        // after a = p1 up to b = p2.
                        let (near, d_near) = if backward { (&p1, &d1p) } else { (&s1, &d1) };
                        pass.repeat(nn, |pass, k| {
                            let k = a.mov(k);
                            let nn_at = |l: usize| a.iadd(nn_row.lane(l), k);
                            pass.ld_global_u32(gm, self.bufs.nn_list, nn_at, |l, c| c2[l] = c);
                            let cc_at = |l: usize| a.iadd(row.lane(l), c2[l]);
                            pass.ld_f32(gm, dist, true, cc_at, |l, d| dcc[l] = d);
                            let pos_at = |l: usize| a.iadd(prow, c2[l]);
                            pass.ld_global_u32(gm, self.bufs.pos, pos_at, |l, p| pos2[l] = p);
                            // s2 = succ(c2) forward, p2 = pred(c2) backward.
                            let end_at = |l: usize| {
                                let p = pos2[l];
                                let e = if backward {
                                    a.select(a.ueq(p, 0), n - 1, a.isub(p, 1))
                                } else {
                                    let next = a.iadd(p, 1);
                                    a.select(a.ueq(next, n), 0, next)
                                };
                                a.iadd(base, e)
                            };
                            pass.ld_global_u32(gm, self.bufs.tours, end_at, |l, e| end2[l] = e);
                            // Removed (c2, s2) forward, (p2, c2) backward.
                            let (from, to) = if backward { (&end2, &c2) } else { (&c2, &end2) };
                            let rem_at = |l: usize| a.iadd(a.imul(from[l], n), to[l]);
                            pass.ld_f32(gm, dist, true, rem_at, |l, d| rem2[l] = d);
                            // Added (s1, s2) forward, (p1, p2) backward.
                            let add_at = |l: usize| a.iadd(a.imul(near.lane(l), n), end2[l]);
                            pass.ld_f32(gm, dist, true, add_at, |l, add2| {
                                let (c1, d_near) = (tid.lane(l), d_near.lane(l));
                                let g = a.fsub(a.fadd(d_near, rem2[l]), a.fadd(dcc[l], add2));
                                let valid = a.flt(dcc[l], d_near)
                                    & a.une(end2[l], c1)
                                    & a.une(c2[l], near.lane(l))
                                    & a.fgt(g, best_g.lane(l));
                                let (ma, mb) =
                                    if backward { (p1.lane(l), end2[l]) } else { (c1, c2[l]) };
                                best_g.set_lane(l, a.mov(a.select(valid, g, best_g.lane(l))));
                                best_a.set_lane(l, a.mov(a.select(valid, ma, best_a.lane(l))));
                                best_b.set_lane(l, a.mov(a.select(valid, mb, best_b.lane(l))));
                            });
                        });
                    }
                });

                // Cities with nothing to propose go to sleep until a
                // neighbouring edge changes.
                let stale = ctx.fle(&best_g, &zero_f);
                ctx.if_then(gm, &stale, |ctx, gm| {
                    ctx.st_global_u32(gm, self.bufs.dont_look, &dl_idx, &one_u);
                });
            });
        });

        // Reduction key: (gain, proposing city); sentinel city = MAX so
        // idle lanes lose ties too.
        let improved = ctx.fgt(&best_g, &zero_f);
        let max_u = ctx.splat_u32(u32::MAX);
        let best_city = ctx.select_u32(&improved, &tid, &max_u);

        let entry = ant * per_ant + blk;
        block_reduce_best(ctx, gm, &best_g, &best_a, &best_b, &best_city, |ctx, gm, g, a, b, c| {
            let eidx = ctx.splat_u32(entry);
            ctx.st_global_f32(gm, self.bufs.block_gain, &eidx, g);
            ctx.st_global_u32(gm, self.bufs.block_a, &eidx, a);
            ctx.st_global_u32(gm, self.bufs.block_b, &eidx, b);
            ctx.st_global_u32(gm, self.bufs.block_city, &eidx, c);
        });
    }
}

/// Shared-memory tree reduction of `(gain, a, b, city)` down to lane 0,
/// preferring higher gain, then lower proposing city — the block-level
/// half of the family's canonical move order — as one
/// [`BlockCtx::sh_tree`]. `emit` runs under the lane-0 mask with the
/// winning values.
fn block_reduce_best(
    ctx: &mut BlockCtx,
    gm: &mut GlobalMem,
    best_g: &Reg<f32>,
    best_a: &Reg<u32>,
    best_b: &Reg<u32>,
    best_city: &Reg<u32>,
    emit: impl FnOnce(&mut BlockCtx, &mut GlobalMem, &Reg<f32>, &Reg<u32>, &Reg<u32>, &Reg<u32>),
) {
    let lane = ctx.thread_idx();
    let s_g = ctx.shared_alloc_f32(LS_BLOCK as usize);
    let s_a = ctx.shared_alloc_u32(LS_BLOCK as usize);
    let s_b = ctx.shared_alloc_u32(LS_BLOCK as usize);
    let s_c = ctx.shared_alloc_u32(LS_BLOCK as usize);
    ctx.sh_st_f32(s_g, &lane, best_g);
    ctx.sh_st_u32(s_a, &lane, best_a);
    ctx.sh_st_u32(s_b, &lane, best_b);
    ctx.sh_st_u32(s_c, &lane, best_city);
    ctx.sync_threads();
    // A level's take: four compares (`>`, `>=`, `<=`, city `<`).
    sh_tree!(ctx, [s_g.words(), s_a, s_b, s_c], |a, lo, hi| {
        let (g1, g2) = (lo.f32(0), hi.f32(0));
        let tie = a.fge(g2, g1) & a.fle(g2, g1) & a.ult(hi.word(3), lo.word(3));
        a.fgt(g2, g1) | tie
    });
    let lane0 = ctx.lane_mask(0);
    ctx.if_then(gm, &lane0, |ctx, gm| {
        let zero = ctx.splat_u32(0);
        let g = ctx.sh_ld_f32(s_g, &zero);
        let a = ctx.sh_ld_u32(s_a, &zero);
        let b = ctx.sh_ld_u32(s_b, &zero);
        let c = ctx.sh_ld_u32(s_c, &zero);
        emit(ctx, gm, &g, &a, &b, &c);
    });
}

/// Fold each windowed ant's per-block bests into its chosen move — one
/// block per ant.
pub struct TwoOptSelectKernel {
    /// Family buffers.
    pub bufs: TwoOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl TwoOptSelectKernel {
    /// One block per windowed ant; threads stride over the ant's entries.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants, LS_BLOCK).regs(18).shared(4 * LS_BLOCK * 4)
    }
}

impl Kernel for TwoOptSelectKernel {
    fn name(&self) -> &'static str {
        "two_opt_select"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let entries = self.bufs.pgrid();
        let ant = self.first_ant + ctx.block_idx;
        let ebase = ctx.splat_u32(ant * entries);
        let lane = ctx.thread_idx();
        let e_reg = ctx.splat_u32(entries);
        let step = ctx.splat_u32(LS_BLOCK);
        let max_u = ctx.splat_u32(u32::MAX);
        let mut fold_g = ctx.splat_f32(0.0);
        let mut fold_a = ctx.splat_u32(0);
        let mut fold_b = ctx.splat_u32(0);
        let mut fold_c = max_u.clone();
        let mut idx = lane.clone();
        for _ in 0..entries.div_ceil(LS_BLOCK) {
            let in_range = ctx.ult(&idx, &e_reg);
            ctx.branch(&in_range);
            ctx.with_mask(gm, &in_range, |ctx, gm| {
                let g_idx = ctx.iadd(&ebase, &idx);
                let g2 = ctx.ld_global_f32(gm, self.bufs.block_gain, &g_idx);
                let c2 = ctx.ld_global_u32(gm, self.bufs.block_city, &g_idx);
                let a2 = ctx.ld_global_u32(gm, self.bufs.block_a, &g_idx);
                let b2 = ctx.ld_global_u32(gm, self.bufs.block_b, &g_idx);
                let gt = ctx.fgt(&g2, &fold_g);
                let ge = ctx.fge(&g2, &fold_g);
                let le = ctx.fle(&g2, &fold_g);
                let eq = ge.and(&le);
                let lower = ctx.ult(&c2, &fold_c);
                let better = gt.or(&eq.and(&lower));
                let ng = ctx.select_f32(&better, &g2, &fold_g);
                ctx.assign_f32(&mut fold_g, &ng);
                let na = ctx.select_u32(&better, &a2, &fold_a);
                ctx.assign_u32(&mut fold_a, &na);
                let nb = ctx.select_u32(&better, &b2, &fold_b);
                ctx.assign_u32(&mut fold_b, &nb);
                let nc = ctx.select_u32(&better, &c2, &fold_c);
                ctx.assign_u32(&mut fold_c, &nc);
            });
            idx = ctx.iadd(&idx, &step);
        }
        block_reduce_best(ctx, gm, &fold_g, &fold_a, &fold_b, &fold_c, |ctx, gm, g, a, b, _c| {
            let aidx = ctx.splat_u32(ant);
            ctx.st_global_f32(gm, self.bufs.chosen_gain, &aidx, g);
            ctx.st_global_u32(gm, self.bufs.chosen_a, &aidx, a);
            ctx.st_global_u32(gm, self.bufs.chosen_b, &aidx, b);
        });
    }
}

/// Apply each windowed ant's chosen move — one block per ant. Blocks
/// write only their own ant's rows (tours, don't-look, length), so the
/// launch satisfies the execution-model rule. An ant whose round found
/// no improving move (chosen gain ≤ 0) is an exact no-op: its swap span
/// is forced to zero and its wake/length section is masked off.
pub struct TwoOptApplyKernel {
    /// Family buffers.
    pub bufs: TwoOptDev,
    /// First ant of the window.
    pub first_ant: u32,
    /// Ants in the window.
    pub num_ants: u32,
}

impl TwoOptApplyKernel {
    /// One block per windowed ant; threads stride over the (disjoint)
    /// swap pairs.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_ants, LS_BLOCK).regs(22)
    }
}

impl Kernel for TwoOptApplyKernel {
    fn name(&self) -> &'static str {
        "two_opt_apply"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let n = self.bufs.n;
        let ant = self.first_ant + ctx.block_idx;
        let base = ant * self.bufs.stride;
        let prow = ant * n;
        let zero_u = ctx.splat_u32(0);
        let zero_f = ctx.splat_f32(0.0);
        let one_u = ctx.splat_u32(1);
        let n_reg = ctx.splat_u32(n);
        let base_reg = ctx.splat_u32(base);
        let prow_reg = ctx.splat_u32(prow);
        let ant_reg = ctx.splat_u32(ant);

        // The ant's chosen move (uniform broadcast loads), and everything
        // that must be read *before* any cell moves: the removed edges'
        // successor cities and the two segment boundaries. A
        // non-improving ant holds the select fold's defaults (gain 0,
        // a = b = 0), so the reads below stay in range and the move is
        // neutralised by the `active` mask.
        let gain = ctx.ld_global_f32(gm, self.bufs.chosen_gain, &ant_reg);
        let active = ctx.fgt(&gain, &zero_f);
        let a = ctx.ld_global_u32(gm, self.bufs.chosen_a, &ant_reg);
        let b = ctx.ld_global_u32(gm, self.bufs.chosen_b, &ant_reg);
        let pa_idx = ctx.iadd(&prow_reg, &a);
        let pa = ctx.ld_global_u32(gm, self.bufs.pos, &pa_idx);
        let pb_idx = ctx.iadd(&prow_reg, &b);
        let pb = ctx.ld_global_u32(gm, self.bufs.pos, &pb_idx);
        let pa1 = ctx.iadd(&pa, &one_u);
        let wrap_a = ctx.ueq(&pa1, &n_reg);
        let spa = ctx.select_u32(&wrap_a, &zero_u, &pa1);
        let spa_g = ctx.iadd(&base_reg, &spa);
        let sa = ctx.ld_global_u32(gm, self.bufs.tours, &spa_g);
        let pb1 = ctx.iadd(&pb, &one_u);
        let wrap_b = ctx.ueq(&pb1, &n_reg);
        let spb = ctx.select_u32(&wrap_b, &zero_u, &pb1);
        let spb_g = ctx.iadd(&base_reg, &spb);
        let sb = ctx.ld_global_u32(gm, self.bufs.tours, &spb_g);

        // Shorter-side selection: inner = (pb - pa) mod n; reverse the
        // inner segment succ(a)..b when 2*inner <= n, else the
        // complement succ(b)..a — the same rule as the CPU pass.
        let pbn = ctx.iadd(&pb, &n_reg);
        let diff = ctx.isub(&pbn, &pa);
        let over = ctx.ule(&n_reg, &diff);
        let diff_w = ctx.isub(&diff, &n_reg);
        let inner = ctx.select_u32(&over, &diff_w, &diff);
        let two = ctx.splat_u32(2);
        let twice = ctx.imul(&inner, &two);
        let use_inner = ctx.ule(&twice, &n_reg);
        let i0 = ctx.select_u32(&use_inner, &spa, &spb);
        let j0 = ctx.select_u32(&use_inner, &pb, &pa);
        let j0n = ctx.iadd(&j0, &n_reg);
        let span = ctx.isub(&j0n, &i0);
        let span_over = ctx.ule(&n_reg, &span);
        let span_w = ctx.isub(&span, &n_reg);
        let seg_m1 = ctx.select_u32(&span_over, &span_w, &span);
        let seg = ctx.iadd(&seg_m1, &one_u);
        let half_raw = ctx.ishr(&seg, &one_u);
        // Inactive ants swap nothing: zero-length span.
        let half = ctx.select_u32(&active, &half_raw, &zero_u);

        // Strided swap loop over this ant's row only: pair t swaps
        // positions (i0 + t) and (j0 - t); pairs are disjoint, and all
        // boundary reads above happened before the first store.
        let mut t = ctx.thread_idx();
        let step = ctx.splat_u32(LS_BLOCK);
        ctx.loop_while(gm, |ctx, gm| {
            let cont = ctx.ult(&t, &half);
            ctx.with_mask(gm, &cont, |ctx, gm| {
                let li_raw = ctx.iadd(&i0, &t);
                let li_over = ctx.ule(&n_reg, &li_raw);
                let li_w = ctx.isub(&li_raw, &n_reg);
                let li = ctx.select_u32(&li_over, &li_w, &li_raw);
                let rj_raw = ctx.isub(&j0n, &t);
                let rj_over = ctx.ule(&n_reg, &rj_raw);
                let rj_w = ctx.isub(&rj_raw, &n_reg);
                let rj = ctx.select_u32(&rj_over, &rj_w, &rj_raw);
                let li_g = ctx.iadd(&base_reg, &li);
                let rj_g = ctx.iadd(&base_reg, &rj);
                let cl = ctx.ld_global_u32(gm, self.bufs.tours, &li_g);
                let cr = ctx.ld_global_u32(gm, self.bufs.tours, &rj_g);
                ctx.st_global_u32(gm, self.bufs.tours, &li_g, &cr);
                ctx.st_global_u32(gm, self.bufs.tours, &rj_g, &cl);
            });
            t = ctx.iadd(&t, &step);
            cont
        });

        // Lane 0 of an active ant: wake the four cities whose edges
        // changed and settle the ant's device-side length.
        let lane0 = ctx.lane_mask(0).and(&active);
        ctx.if_then(gm, &lane0, |ctx, gm| {
            for city in [&a, &sa, &b, &sb] {
                let dl_idx = ctx.iadd(&prow_reg, city);
                ctx.st_global_u32(gm, self.bufs.dont_look, &dl_idx, &zero_u);
            }
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
    bufs: TwoOptDev,
    first_ant: u32,
    num_ants: u32,
    mode: SimMode,
    threads: usize,
) -> Result<(), SimtError> {
    let pk = PosKernel {
        name: "two_opt_pos",
        n: bufs.n,
        stride: bufs.stride,
        tours: bufs.tours,
        pos: bufs.pos,
        first_ant,
        num_ants,
    };
    run.launch(dev, &pk.config(), &pk, gm, mode, threads)?;
    let prk = TwoOptProposeKernel { bufs, first_ant, num_ants };
    run.launch(dev, &prk.config(), &prk, gm, mode, threads)?;
    let sk = TwoOptSelectKernel { bufs, first_ant, num_ants };
    run.launch(dev, &sk.config(), &sk, gm, mode, threads)
}

/// cudaMemset of the window's don't-look bits: a pass starts with every
/// city awake.
fn wake_window(gm: &mut GlobalMem, bufs: TwoOptDev, first_ant: u32, num_ants: u32) {
    let n = bufs.n as usize;
    gm.u32_mut(bufs.dont_look)[first_ant as usize * n..(first_ant + num_ants) as usize * n].fill(0);
}

/// Run the 2-opt family over the window `first_ant .. first_ant +
/// num_ants` of tour rows until no windowed ant proposes an improving
/// move. Each round is one launch per phase — position-scatter, propose,
/// select and (when any ant found a move) apply — so the pass costs
/// `O(rounds)` launches whatever the window size. The host reads back
/// `num_ants` gain words per round. An empty window returns an empty run
/// without a launch. Results are bit-identical to the CPU pass per ant,
/// at any host `threads` count.
pub fn run_two_opt_window(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: TwoOptDev,
    first_ant: u32,
    num_ants: u32,
    threads: usize,
) -> Result<LsRun, SimtError> {
    let mut run = LsRun::new(dev);
    if num_ants == 0 {
        return Ok(run);
    }
    wake_window(gm, bufs, first_ant, num_ants);
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    loop {
        propose_round(&mut run, dev, gm, bufs, first_ant, num_ants, SimMode::Full, threads)?;
        run.rounds += 1;
        let improving =
            gm.f32(bufs.chosen_gain)[window.clone()].iter().filter(|&&g| g > 0.0).count();
        if improving == 0 {
            break;
        }
        let ak = TwoOptApplyKernel { bufs, first_ant, num_ants };
        run.launch(dev, &ak.config(), &ak, gm, SimMode::Full, threads)?;
        run.moves += improving as u32;
    }
    Ok(run)
}

/// The one-ant window `ant .. ant + 1` of [`run_two_opt_window`]. Only
/// the benchmark harness still calls it; it goes with the next benchmark
/// change.
pub fn run_two_opt(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: TwoOptDev,
    ant: u32,
    threads: usize,
) -> Result<LsRun, SimtError> {
    run_two_opt_window(dev, gm, bufs, ant, 1, threads)
}

/// Price one proposal round (position-scatter + propose + select) over
/// the window at the given fidelity without mutating any tour — the
/// engine's cost model folds the per-iteration local-search kernel into
/// backend selection with it. Deterministic in the inputs.
pub fn probe_round_ms(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: TwoOptDev,
    first_ant: u32,
    num_ants: u32,
    mode: SimMode,
) -> Result<f64, SimtError> {
    if num_ants == 0 {
        return Ok(0.0);
    }
    wake_window(gm, bufs, first_ant, num_ants);
    let mut run = LsRun::new(dev);
    propose_round(&mut run, dev, gm, bufs, first_ant, num_ants, mode, 1)?;
    Ok(run.ms)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cpu::{two_opt_nn, LsScratch};
    use aco_tsp::{uniform_random, NearestNeighborLists, Tour, TspInstance};
    use rand::SeedableRng;

    // Fixtures shared with the `or_opt` family's tests.

    /// A family scratch constructor (`TwoOptDev::allocate`,
    /// `OrOptDev::allocate`).
    type Allocate<D> = fn(
        &mut GlobalMem,
        u32,
        u32,
        u32,
        DevicePtr<f32>,
        DevicePtr<u32>,
        DevicePtr<f32>,
        DevicePtr<u32>,
    ) -> D;

    /// Device buffers mirroring a colony's — distances, one padded tour
    /// row per tour, f32 lengths, candidate lists — plus the scratch
    /// `allocate` builds next to them.
    pub fn device_setup<D>(
        inst: &TspInstance,
        nn: &NearestNeighborLists,
        tours: &[Tour],
        stride: u32,
        allocate: Allocate<D>,
    ) -> (GlobalMem, D) {
        let n = inst.n();
        let mut gm = GlobalMem::new();
        let dist = gm.alloc_f32(n * n);
        let host: Vec<f32> = inst.matrix().as_flat().iter().map(|&d| d as f32).collect();
        gm.write_f32(dist, &host);
        let tbuf = gm.alloc_u32(tours.len() * stride as usize);
        {
            let cells = gm.u32_mut(tbuf);
            for (a, t) in tours.iter().enumerate() {
                let row = &mut cells[a * stride as usize..(a + 1) * stride as usize];
                row[..n].copy_from_slice(t.order());
                for c in row[n..].iter_mut() {
                    *c = t.order()[0];
                }
            }
        }
        let lengths = gm.alloc_f32(tours.len());
        let lens: Vec<f32> = tours.iter().map(|t| t.length(inst.matrix()) as f32).collect();
        gm.write_f32(lengths, &lens);
        let nn_buf = gm.alloc_u32(n * nn.depth());
        gm.write_u32(nn_buf, nn.as_flat());
        let bufs =
            allocate(&mut gm, n as u32, nn.depth() as u32, stride, dist, tbuf, lengths, nn_buf);
        (gm, bufs)
    }

    /// `m` random tours on `n` cities.
    pub fn random_tours(n: usize, m: usize, seed: u64) -> Vec<Tour> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..m).map(|_| Tour::random(n, &mut rng)).collect()
    }

    #[test]
    fn full_and_single_ant_windows_match_cpu_two_opt_nn_exactly() {
        for (n, seed, depth, m) in
            [(32usize, 7u64, 8usize, 4usize), (61, 21, 12, 6), (96, 3, 16, 3)]
        {
            let inst = uniform_random("ls-gpu", n, 1000.0, seed);
            let nn = NearestNeighborLists::build(inst.matrix(), depth).unwrap();
            let tours = random_tours(n, m, seed ^ 0xA5);
            let stride = ((n + 1) as u32).next_multiple_of(256);
            let hosts: Vec<(Tour, usize)> = tours
                .iter()
                .map(|t| {
                    let mut host = t.clone();
                    let moves = two_opt_nn(&mut host, inst.matrix(), &nn, &mut LsScratch::new());
                    (host, moves)
                })
                .collect();
            // The full window, then a one-ant window at the last (non-zero) ant.
            let last = m as u32 - 1;
            for (first, num) in [(0, m as u32), (last, 1)] {
                let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, TwoOptDev::allocate);
                let run =
                    run_two_opt_window(&DeviceSpec::tesla_m2050(), &mut gm, bufs, first, num, 1)
                        .unwrap();
                let mut moves = 0;
                let window = hosts.iter().enumerate().skip(first as usize).take(num as usize);
                for (a, (host, host_moves)) in window {
                    moves += host_moves;
                    let row = &gm.u32(bufs.tours)[a * stride as usize..a * stride as usize + n];
                    assert_eq!(row, host.order(), "n={n} ant={a}: device and host tours differ");
                    // The device-side f32 length tracks the exact improvement.
                    let exact = host.length(inst.matrix()) as f32;
                    let dev_len = gm.f32(bufs.lengths)[a];
                    assert!(
                        (dev_len - exact).abs() <= exact * 1e-5,
                        "ant {a}: device length {dev_len} vs exact {exact}"
                    );
                }
                assert_eq!(run.moves as usize, moves, "n={n} window {first}+{num}: move count");
                assert!(run.rounds >= 2, "random tours on {n} cities take several rounds");
            }
        }
    }

    #[test]
    fn window_leaves_every_other_row_byte_identical() {
        let n = 48usize;
        let inst = uniform_random("ls-win", n, 900.0, 5);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let tours = random_tours(n, 5, 9);
        let stride = ((n + 1) as u32).next_multiple_of(256) as usize;
        let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride as u32, TwoOptDev::allocate);
        let rows_before = gm.u32(bufs.tours).to_vec();
        let lens_before: Vec<u32> = gm.f32(bufs.lengths).iter().map(|l| l.to_bits()).collect();
        let run = run_two_opt_window(&DeviceSpec::tesla_c1060(), &mut gm, bufs, 1, 2, 1).unwrap();
        assert!(run.moves > 0);
        for a in [0usize, 3, 4] {
            let row = a * stride..(a + 1) * stride;
            assert_eq!(
                gm.u32(bufs.tours)[row.clone()],
                rows_before[row],
                "ant {a}: tour or padding"
            );
            assert_eq!(gm.f32(bufs.lengths)[a].to_bits(), lens_before[a], "ant {a}: length");
        }
    }

    #[test]
    fn window_is_bit_identical_at_any_exec_thread_count() {
        let n = 48usize;
        let m = 5usize;
        let inst = uniform_random("ls-thr", n, 900.0, 5);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let tours = random_tours(n, m, 9);
        let stride = ((n + 1) as u32).next_multiple_of(256);
        let dev = DeviceSpec::tesla_c1060();
        let pass = |threads: usize| {
            let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, TwoOptDev::allocate);
            let run = run_two_opt_window(&dev, &mut gm, bufs, 0, m as u32, threads).unwrap();
            let lens: Vec<u32> = gm.f32(bufs.lengths).iter().map(|l| l.to_bits()).collect();
            (run, gm.u32(bufs.tours).to_vec(), lens)
        };
        let (serial, tours1, lens1) = pass(1);
        for threads in [2, 4, 16] {
            let (parallel, tours2, lens2) = pass(threads);
            assert_eq!(serial.rounds, parallel.rounds, "{threads} threads");
            assert_eq!(serial.moves, parallel.moves, "{threads} threads");
            assert_eq!(serial.stats, parallel.stats, "{threads} threads: counters");
            assert_eq!(serial.ms.to_bits(), parallel.ms.to_bits(), "{threads} threads: time");
            assert_eq!(tours1, tours2, "{threads} threads: memory");
            assert_eq!(lens1, lens2, "{threads} threads: lengths");
        }
    }

    #[test]
    fn local_optimum_is_a_single_round_noop_and_the_probe_touches_no_tour() {
        let n = 40usize;
        let inst = uniform_random("ls-idem", n, 800.0, 2);
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut tour = Tour::random(n, &mut rng);
        let mut scratch = LsScratch::new();
        // One pass ends at a don't-look-bit fixpoint, not necessarily a
        // full local optimum (sleeping cities can still own moves), so
        // iterate fresh passes until none finds anything.
        while two_opt_nn(&mut tour, inst.matrix(), &nn, &mut scratch) > 0 {}
        let stride = ((n + 1) as u32).next_multiple_of(256);
        let tours = [tour.clone()];
        let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, TwoOptDev::allocate);
        let dev = DeviceSpec::tesla_m2050();
        let run = run_two_opt_window(&dev, &mut gm, bufs, 0, 1, 1).unwrap();
        assert_eq!(run.moves, 0, "a host local optimum admits no device move");
        assert_eq!(run.rounds, 1);
        assert!(run.ms > 0.0, "even an empty pass costs kernel time");
        assert_eq!(gm.u32(bufs.tours)[..n], *tour.order());

        // The probe prices a round of a random tour without touching it.
        let tours = random_tours(n, 3, 13);
        let (mut gm, bufs) = device_setup(&inst, &nn, &tours, stride, TwoOptDev::allocate);
        let before = gm.u32(bufs.tours).to_vec();
        let ms = probe_round_ms(&dev, &mut gm, bufs, 0, 3, SimMode::Full).unwrap();
        assert!(ms > 0.0);
        assert_eq!(gm.u32(bufs.tours).to_vec(), before);
    }

    #[test]
    fn empty_window_returns_an_empty_run_without_a_launch() {
        let n = 24usize;
        let inst = uniform_random("ls-empty", n, 500.0, 1);
        let nn = NearestNeighborLists::build(inst.matrix(), 6).unwrap();
        let tours = random_tours(n, 2, 3);
        let (mut gm, bufs) = device_setup(&inst, &nn, &tours, 256, TwoOptDev::allocate);
        let dev = DeviceSpec::tesla_m2050();
        let before = gm.u32(bufs.tours).to_vec();
        let run = run_two_opt_window(&dev, &mut gm, bufs, 1, 0, 1).unwrap();
        assert_eq!((run.rounds, run.moves), (0, 0));
        assert_eq!(run.ms, 0.0);
        assert_eq!(run.stats, LsRun::new(&dev).stats, "no launch merged any counter");
        assert_eq!(probe_round_ms(&dev, &mut gm, bufs, 1, 0, SimMode::Full).unwrap(), 0.0);
        assert_eq!(gm.u32(bufs.tours).to_vec(), before);
    }
}

//! The device local search's closed-form code against the op-by-op
//! kernels it replaced, kept here as the oracle.
//!
//! Both families' propose kernels scan their candidates as one lane pass
//! (`BlockCtx::lane_pass`), and both reduce their per-lane moves through
//! the shared tree collective (`BlockCtx::sh_tree`). Below are the
//! written-out forms: the op-by-op 2-opt and Or-opt propose bodies and
//! the level loops of the `(gain, a, b, city)` best-move reduction (2-opt
//! propose and select) and of the `(key, p, seg, rank)` first-move
//! reduction (Or-opt propose and select). Each case runs full passes,
//! round by round, and launches every propose and select kernel twice
//! from the same memory — the written-out form, then the kernel — and
//! compares every `KernelStats` and `KernelTime` bit, the executed blocks
//! and every word the kernel writes (the per-block entries and the
//! don't-look bits, or the chosen move), then goes on from the kernel's
//! memory.
//!
//! The cases cover n = 24, 48, 100 and 200 (two propose blocks per ant),
//! the C1060 and the M2050, nearest-neighbour and random tours, and
//! windows of one and five ants, on uniform random instances and on a
//! lattice, whose equal distances give equal gains, so the city
//! tie-break decides. The n = 100 and 200 cases are `#[ignore]`d for the
//! release tier (`cargo test --release -p aco-localsearch --test
//! propose_oracle -- --include-ignored`); the debug tier runs n = 24 and
//! 48.

use aco_localsearch::gpu::{
    PosKernel, TwoOptApplyKernel, TwoOptDev, TwoOptProposeKernel, TwoOptSelectKernel, LS_BLOCK,
};
use aco_localsearch::oropt::{OrOptApplyKernel, OrOptDev, OrOptProposeKernel, OrOptSelectKernel};
use aco_simt::prelude::*;
use aco_tsp::{
    grid, nearest_neighbor_tour, uniform_random, NearestNeighborLists, Tour, TspInstance,
};
use rand::SeedableRng;

// --- the harness -------------------------------------------------------------

/// A buffer a kernel writes.
#[derive(Clone, Copy)]
enum Out {
    F32(DevicePtr<f32>),
    U32(DevicePtr<u32>),
}

/// Every word of `outs`, f32 as bits.
fn words(gm: &GlobalMem, outs: &[Out]) -> Vec<Vec<u32>> {
    outs.iter()
        .map(|&o| match o {
            Out::F32(p) => gm.f32(p).iter().map(|x| x.to_bits()).collect(),
            Out::U32(p) => gm.u32(p).to_vec(),
        })
        .collect()
}

/// Write `saved` (from [`words`]) back into `outs`.
fn restore(gm: &mut GlobalMem, outs: &[Out], saved: &[Vec<u32>]) {
    for (&o, w) in outs.iter().zip(saved) {
        match o {
            Out::F32(p) => {
                gm.f32_mut(p).iter_mut().zip(w).for_each(|(x, &b)| *x = f32::from_bits(b))
            }
            Out::U32(p) => gm.u32_mut(p).copy_from_slice(w),
        }
    }
}

/// Every counter, modeled-time and block-count bit of one launch.
fn launch_bits(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    k: &dyn Kernel,
    gm: &mut GlobalMem,
) -> Vec<u64> {
    let r = launch_threads(dev, cfg, k, gm, SimMode::Full, 1).unwrap();
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

/// Launch the written-out `oracle`, put `outs` back, launch `kernel` and
/// assert both launches and both sets of written words agree; the memory
/// left is the kernel's.
fn same_launch(
    case: &str,
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    [oracle, kernel]: [&dyn Kernel; 2],
    gm: &mut GlobalMem,
    outs: &[Out],
) {
    let before = words(gm, outs);
    let oracle_bits = launch_bits(dev, cfg, oracle, gm);
    let oracle_words = words(gm, outs);
    restore(gm, outs, &before);
    let bits = launch_bits(dev, cfg, kernel, gm);
    assert_eq!(bits, oracle_bits, "{case} {}: counters and modeled time", kernel.name());
    assert_eq!(words(gm, outs), oracle_words, "{case} {}: memory", kernel.name());
}

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

/// Device memory of a colony — distances, one padded tour row per tour,
/// f32 lengths, candidate lists — and the family scratch next to it.
fn device_setup<D>(case: &Case, allocate: Allocate<D>) -> (GlobalMem, D) {
    let (inst, tours) = (&case.inst, &case.tours);
    let n = inst.n();
    let stride = (n + 1).next_multiple_of(256);
    let mut gm = GlobalMem::new();
    let dist = gm.alloc_f32(n * n);
    let host: Vec<f32> = inst.matrix().as_flat().iter().map(|&d| d as f32).collect();
    gm.write_f32(dist, &host);
    let tbuf = gm.alloc_u32(tours.len() * stride);
    for (a, t) in tours.iter().enumerate() {
        let row = &mut gm.u32_mut(tbuf)[a * stride..(a + 1) * stride];
        row[..n].copy_from_slice(t.order());
        row[n..].fill(t.order()[0]);
    }
    let lengths = gm.alloc_f32(tours.len());
    let lens: Vec<f32> = tours.iter().map(|t| t.length(inst.matrix()) as f32).collect();
    gm.write_f32(lengths, &lens);
    let nn_buf = gm.alloc_u32(n * case.nn.depth());
    gm.write_u32(nn_buf, case.nn.as_flat());
    let depth = case.nn.depth() as u32;
    let bufs = allocate(&mut gm, n as u32, depth, stride as u32, dist, tbuf, lengths, nn_buf);
    (gm, bufs)
}

/// One case: an instance, its candidate lists and five tours.
struct Case {
    name: String,
    inst: TspInstance,
    nn: NearestNeighborLists,
    tours: Vec<Tour>,
}

/// The cases of one `n`: a uniform random instance and a lattice of
/// `w x n/w` points (equal gains), each with nearest-neighbour tours
/// from five starts and with five random tours.
fn cases(n: usize) -> Vec<Case> {
    let w = match n {
        24 => 6,
        48 => 8,
        100 => 10,
        _ => 20,
    };
    let mut out = Vec::new();
    for inst in [uniform_random("random", n, 1000.0, n as u64), grid("lattice", w, n / w, 10.0)] {
        let nn = NearestNeighborLists::build(inst.matrix(), 10).unwrap();
        let greedy = (0..5).map(|s| nearest_neighbor_tour(inst.matrix(), s * n / 5)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 ^ 0x5EED);
        let random = (0..5).map(|_| Tour::random(n, &mut rng)).collect();
        for (kind, tours) in [("greedy", greedy), ("random", random)] {
            let name = format!("{} n={n} {kind} tours", inst.name());
            out.push(Case { name, inst: inst.clone(), nn: nn.clone(), tours });
        }
    }
    out
}

/// Windows of all five ants and of the fourth alone.
const WINDOWS: [(u32, u32); 2] = [(0, 5), (3, 1)];

/// Full passes of one family over every case of `n`, device and window:
/// `round(label, dev, gm, bufs, first_ant, num_ants)` runs one round and
/// returns whether some ant of the window moved. Returns the rounds run.
fn passes<D: Copy>(
    n: usize,
    allocate: Allocate<D>,
    round: impl Fn(&str, &DeviceSpec, &mut GlobalMem, D, u32, u32) -> bool,
) -> u32 {
    let mut rounds = 0;
    for case in cases(n) {
        for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
            for (first_ant, num_ants) in WINDOWS {
                let (mut gm, bufs) = device_setup(&case, allocate);
                for r in 0.. {
                    let label = format!(
                        "{} {} window {first_ant}+{num_ants} round {r}",
                        case.name, dev.name
                    );
                    rounds += 1;
                    if !round(&label, &dev, &mut gm, bufs, first_ant, num_ants) {
                        break;
                    }
                }
            }
        }
    }
    rounds
}

/// The position scatter of a round.
fn scatter(dev: &DeviceSpec, gm: &mut GlobalMem, pk: PosKernel) {
    launch_threads(dev, &pk.config(), &pk, gm, SimMode::Full, 1).unwrap();
}

/// One 2-opt round with its propose and select launches against their
/// written-out forms; the window starts awake (the buffer is fresh).
fn two_opt_round(
    label: &str,
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: TwoOptDev,
    first_ant: u32,
    num_ants: u32,
) -> bool {
    let (n, stride, tours, pos) = (bufs.n, bufs.stride, bufs.tours, bufs.pos);
    scatter(dev, gm, PosKernel { name: "two_opt_pos", n, stride, tours, pos, first_ant, num_ants });
    let propose = TwoOptProposeKernel { bufs, first_ant, num_ants };
    let oracle = OpByOpPropose { bufs, first_ant };
    let outs = [
        Out::F32(bufs.block_gain),
        Out::U32(bufs.block_a),
        Out::U32(bufs.block_b),
        Out::U32(bufs.block_city),
        Out::U32(bufs.dont_look),
    ];
    same_launch(label, dev, &propose.config(), [&oracle, &propose], gm, &outs);
    let select = TwoOptSelectKernel { bufs, first_ant, num_ants };
    let oracle = WrittenOutSelect { bufs, first_ant };
    let outs = [Out::F32(bufs.chosen_gain), Out::U32(bufs.chosen_a), Out::U32(bufs.chosen_b)];
    same_launch(label, dev, &select.config(), [&oracle, &select], gm, &outs);
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    if gm.f32(bufs.chosen_gain)[window].iter().all(|&g| g <= 0.0) {
        return false;
    }
    let ak = TwoOptApplyKernel { bufs, first_ant, num_ants };
    launch_threads(dev, &ak.config(), &ak, gm, SimMode::Full, 1).unwrap();
    true
}

/// One Or-opt round with its propose and select launches against their
/// written-out forms.
fn or_opt_round(
    label: &str,
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    bufs: OrOptDev,
    first_ant: u32,
    num_ants: u32,
) -> bool {
    let (n, stride, tours, pos) = (bufs.n, bufs.stride, bufs.tours, bufs.pos);
    scatter(dev, gm, PosKernel { name: "or_opt_pos", n, stride, tours, pos, first_ant, num_ants });
    let propose = OrOptProposeKernel { bufs, first_ant, num_ants };
    let oracle = OpByOpOrPropose { bufs, first_ant };
    let outs = [
        Out::U32(bufs.block_key),
        Out::U32(bufs.block_p),
        Out::U32(bufs.block_seg),
        Out::U32(bufs.block_rank),
    ];
    same_launch(label, dev, &propose.config(), [&oracle, &propose], gm, &outs);
    let select = OrOptSelectKernel { bufs, first_ant, num_ants };
    let oracle = WrittenOutOrSelect { bufs, first_ant };
    let outs = [
        Out::U32(bufs.chosen_key),
        Out::U32(bufs.chosen_p),
        Out::U32(bufs.chosen_seg),
        Out::U32(bufs.chosen_rank),
    ];
    same_launch(label, dev, &select.config(), [&oracle, &select], gm, &outs);
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    if gm.u32(bufs.chosen_key)[window].iter().all(|&k| k == u32::MAX) {
        return false;
    }
    let ak = OrOptApplyKernel { bufs, first_ant, num_ants };
    launch_threads(dev, &ak.config(), &ak, gm, SimMode::Full, 1).unwrap();
    true
}

#[test]
fn two_opt_rounds_match_the_written_out_kernels() {
    for n in [24, 48] {
        assert!(passes(n, TwoOptDev::allocate, two_opt_round) > 0);
    }
}

#[test]
#[ignore = "release tier: n = 100 and 200"]
fn two_opt_rounds_match_the_written_out_kernels_at_100_and_200() {
    for n in [100, 200] {
        assert!(passes(n, TwoOptDev::allocate, two_opt_round) > 0);
    }
}

#[test]
fn or_opt_rounds_match_the_written_out_kernels() {
    for n in [24, 48] {
        assert!(passes(n, OrOptDev::allocate, or_opt_round) > 0);
    }
}

#[test]
#[ignore = "release tier: n = 100 and 200"]
fn or_opt_rounds_match_the_written_out_kernels_at_100_and_200() {
    for n in [100, 200] {
        assert!(passes(n, OrOptDev::allocate, or_opt_round) > 0);
    }
}

// --- the written-out kernels ---------------------------------------------------

/// [`TwoOptProposeKernel`] with its candidate loops op by op and the
/// level loop of its reduction written out.
struct OpByOpPropose {
    bufs: TwoOptDev,
    first_ant: u32,
}

impl Kernel for OpByOpPropose {
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
                // keeps the earlier candidate).
                for k in 0..nn {
                    // Forward move: remove (c1, s1) and (c2, s2), add
                    // (c1, c2) and (s1, s2) — reverse after a = c1 up to
                    // b = c2.
                    let k_reg = ctx.splat_u32(k);
                    let l_idx = ctx.iadd(&nn_row, &k_reg);
                    let c2 = ctx.ld_global_u32(gm, self.bufs.nn_list, &l_idx);
                    let cc_idx = ctx.iadd(&row, &c2);
                    let dcc = ctx.ld_tex_f32(gm, self.bufs.dist, &cc_idx);
                    let c2p_idx = ctx.iadd(&prow_reg, &c2);
                    let c2_pos = ctx.ld_global_u32(gm, self.bufs.pos, &c2p_idx);
                    let c2p1 = ctx.iadd(&c2_pos, &one_u);
                    let wrap = ctx.ueq(&c2p1, &n_reg);
                    let sp2 = ctx.select_u32(&wrap, &zero_u, &c2p1);
                    let sp2_g = ctx.iadd(&base_reg, &sp2);
                    let s2 = ctx.ld_global_u32(gm, self.bufs.tours, &sp2_g);
                    let c2_row = ctx.imul(&c2, &n_reg);
                    let rem2_idx = ctx.iadd(&c2_row, &s2);
                    let rem2 = ctx.ld_tex_f32(gm, self.bufs.dist, &rem2_idx);
                    let s1_row = ctx.imul(&s1, &n_reg);
                    let add2_idx = ctx.iadd(&s1_row, &s2);
                    let add2 = ctx.ld_tex_f32(gm, self.bufs.dist, &add2_idx);
                    let removed = ctx.fadd(&d1, &rem2);
                    let added = ctx.fadd(&dcc, &add2);
                    let g = ctx.fsub(&removed, &added);
                    let closer = ctx.flt(&dcc, &d1);
                    let ok1 = ctx.une(&s2, &tid);
                    let ok2 = ctx.une(&c2, &s1);
                    let better = ctx.fgt(&g, &best_g);
                    let valid = closer.and(&ok1).and(&ok2).and(&better);
                    let ng = ctx.select_f32(&valid, &g, &best_g);
                    ctx.assign_f32(&mut best_g, &ng);
                    let na = ctx.select_u32(&valid, &tid, &best_a);
                    ctx.assign_u32(&mut best_a, &na);
                    let nb = ctx.select_u32(&valid, &c2, &best_b);
                    ctx.assign_u32(&mut best_b, &nb);
                }

                for k in 0..nn {
                    // Backward move: remove (p1, c1) and (p2, c2), add
                    // (c1, c2) and (p1, p2) — reverse after a = p1 up to
                    // b = p2.
                    let k_reg = ctx.splat_u32(k);
                    let l_idx = ctx.iadd(&nn_row, &k_reg);
                    let c2 = ctx.ld_global_u32(gm, self.bufs.nn_list, &l_idx);
                    let cc_idx = ctx.iadd(&row, &c2);
                    let dcc = ctx.ld_tex_f32(gm, self.bufs.dist, &cc_idx);
                    let c2p_idx = ctx.iadd(&prow_reg, &c2);
                    let c2_pos = ctx.ld_global_u32(gm, self.bufs.pos, &c2p_idx);
                    let wrap = ctx.ueq(&c2_pos, &zero_u);
                    let c2m1 = ctx.isub(&c2_pos, &one_u);
                    let ppos2 = ctx.select_u32(&wrap, &nm1, &c2m1);
                    let pp2_g = ctx.iadd(&base_reg, &ppos2);
                    let p2 = ctx.ld_global_u32(gm, self.bufs.tours, &pp2_g);
                    let p2_row = ctx.imul(&p2, &n_reg);
                    let rem2_idx = ctx.iadd(&p2_row, &c2);
                    let rem2 = ctx.ld_tex_f32(gm, self.bufs.dist, &rem2_idx);
                    let p1_row2 = ctx.imul(&p1, &n_reg);
                    let add2_idx = ctx.iadd(&p1_row2, &p2);
                    let add2 = ctx.ld_tex_f32(gm, self.bufs.dist, &add2_idx);
                    let removed = ctx.fadd(&d1p, &rem2);
                    let added = ctx.fadd(&dcc, &add2);
                    let g = ctx.fsub(&removed, &added);
                    let closer = ctx.flt(&dcc, &d1p);
                    let ok1 = ctx.une(&p2, &tid);
                    let ok2 = ctx.une(&c2, &p1);
                    let better = ctx.fgt(&g, &best_g);
                    let valid = closer.and(&ok1).and(&ok2).and(&better);
                    let ng = ctx.select_f32(&valid, &g, &best_g);
                    ctx.assign_f32(&mut best_g, &ng);
                    let na = ctx.select_u32(&valid, &p1, &best_a);
                    ctx.assign_u32(&mut best_a, &na);
                    let nb = ctx.select_u32(&valid, &p2, &best_b);
                    ctx.assign_u32(&mut best_b, &nb);
                }

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
        written_out_best(ctx, gm, &best_g, &best_a, &best_b, &best_city, |ctx, gm, g, a, b, c| {
            let eidx = ctx.splat_u32(entry);
            ctx.st_global_f32(gm, self.bufs.block_gain, &eidx, g);
            ctx.st_global_u32(gm, self.bufs.block_a, &eidx, a);
            ctx.st_global_u32(gm, self.bufs.block_b, &eidx, b);
            ctx.st_global_u32(gm, self.bufs.block_city, &eidx, c);
        });
    }
}

/// [`TwoOptSelectKernel`] with the level loop of its reduction written
/// out.
struct WrittenOutSelect {
    bufs: TwoOptDev,
    first_ant: u32,
}

impl Kernel for WrittenOutSelect {
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
        written_out_best(ctx, gm, &fold_g, &fold_a, &fold_b, &fold_c, |ctx, gm, g, a, b, _c| {
            let aidx = ctx.splat_u32(ant);
            ctx.st_global_f32(gm, self.bufs.chosen_gain, &aidx, g);
            ctx.st_global_u32(gm, self.bufs.chosen_a, &aidx, a);
            ctx.st_global_u32(gm, self.bufs.chosen_b, &aidx, b);
        });
    }
}

/// [`OrOptProposeKernel`] with its candidate loop op by op and the level
/// loop of its reduction written out.
struct OpByOpOrPropose {
    bufs: OrOptDev,
    first_ant: u32,
}

impl Kernel for OpByOpOrPropose {
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

            for seg_len in 1..=3.min(n.saturating_sub(4)) {
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
                    let rem_ok = ctx.fgt(&removal, &zero_f);

                    let first_nn = ctx.imul(&first, &nn_reg);
                    let first_row = ctx.imul(&first, &n_reg);
                    let seg_end = ctx.iadd(&p, &s_reg);
                    // Key base for this (seg_len, ·, ·) plane.
                    let plane = ctx.splat_u32((seg_len - 1) * (n + 1) * nn);
                    let key_p = ctx.iadd(&plane, &p_nn);

                    for k in 0..nn {
                        let k_reg = ctx.splat_u32(k);
                        let l_idx = ctx.iadd(&first_nn, &k_reg);
                        let c = ctx.ld_global_u32(gm, self.bufs.nn_list, &l_idx);
                        let cp_idx = ctx.iadd(&prow_reg, &c);
                        let cp = ctx.ld_global_u32(gm, self.bufs.pos, &cp_idx);
                        // Skip candidates inside the segment or equal to
                        // `prev` (splicing after either is degenerate).
                        let ge_p = ctx.ule(&p, &cp);
                        let lt_end = ctx.ult(&cp, &seg_end);
                        let in_seg = ge_p.and(&lt_end);
                        let is_prev = ctx.ueq(&c, &prev);
                        let usable = in_seg.or(&is_prev).not();

                        let cp1 = ctx.iadd(&cp, &one_u);
                        let cp1_over = ctx.ule(&n_reg, &cp1);
                        let cp1_w = ctx.isub(&cp1, &n_reg);
                        let cn_pos = ctx.select_u32(&cp1_over, &cp1_w, &cp1);
                        let cn_g = ctx.iadd(&base_reg, &cn_pos);
                        let c_next = ctx.ld_global_u32(gm, self.bufs.tours, &cn_g);

                        let c_row = ctx.imul(&c, &n_reg);
                        let ccn_idx = ctx.iadd(&c_row, &c_next);
                        let d_base = ctx.ld_tex_f32(gm, self.bufs.dist, &ccn_idx);
                        let cf_idx = ctx.iadd(&c_row, &first);
                        let d_cf = ctx.ld_tex_f32(gm, self.bufs.dist, &cf_idx);
                        let lcn_idx = ctx.iadd(&last_row, &c_next);
                        let d_lcn = ctx.ld_tex_f32(gm, self.bufs.dist, &lcn_idx);
                        let cl_idx = ctx.iadd(&c_row, &last);
                        let d_cl = ctx.ld_tex_f32(gm, self.bufs.dist, &cl_idx);
                        let fcn_idx = ctx.iadd(&first_row, &c_next);
                        let d_fcn = ctx.ld_tex_f32(gm, self.bufs.dist, &fcn_idx);

                        // fwd / rev / cost, mirroring the CPU expressions
                        // term for term.
                        let fwd_sum = ctx.fadd(&d_cf, &d_lcn);
                        let fwd = ctx.fsub(&fwd_sum, &d_base);
                        let rev_sum = ctx.fadd(&d_cl, &d_fcn);
                        let rev = ctx.fsub(&rev_sum, &d_base);
                        let take_fwd = ctx.fle(&fwd, &rev);
                        let cost = ctx.select_f32(&take_fwd, &fwd, &rev);
                        let imp = ctx.fsub(&removal, &cost);
                        let improving = ctx.fgt(&imp, &zero_f);

                        let key = ctx.iadd(&key_p, &k_reg);
                        let lower = ctx.ult(&key, &best_key);
                        let valid = rem_ok.and(&usable).and(&improving).and(&lower);
                        let nk = ctx.select_u32(&valid, &key, &best_key);
                        ctx.assign_u32(&mut best_key, &nk);
                        let np = ctx.select_u32(&valid, &p, &best_p);
                        ctx.assign_u32(&mut best_p, &np);
                        let ns = ctx.select_u32(&valid, &s_reg, &best_seg);
                        ctx.assign_u32(&mut best_seg, &ns);
                        let nr = ctx.select_u32(&valid, &k_reg, &best_rank);
                        ctx.assign_u32(&mut best_rank, &nr);
                    }
                });
            }
        });

        let entry = ant * per_ant + blk;
        written_out_min_key(
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

/// [`OrOptSelectKernel`] with the level loop of its reduction written
/// out.
struct WrittenOutOrSelect {
    bufs: OrOptDev,
    first_ant: u32,
}

impl Kernel for WrittenOutOrSelect {
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
        written_out_min_key(ctx, gm, &fold_k, &fold_p, &fold_s, &fold_r, |ctx, gm, k, p, s, r| {
            let aidx = ctx.splat_u32(ant);
            ctx.st_global_u32(gm, self.bufs.chosen_key, &aidx, k);
            ctx.st_global_u32(gm, self.bufs.chosen_p, &aidx, p);
            ctx.st_global_u32(gm, self.bufs.chosen_seg, &aidx, s);
            ctx.st_global_u32(gm, self.bufs.chosen_rank, &aidx, r);
        });
    }
}

/// The `(gain, a, b, city)` best-move reduction with its level loop
/// written out: higher gain, then lower proposing city.
fn written_out_best(
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
    let mut off = LS_BLOCK / 2;
    while off >= 1 {
        let off_reg = ctx.splat_u32(off);
        let low = ctx.ult(&lane, &off_reg);
        ctx.branch(&low);
        ctx.with_mask(gm, &low, |ctx, _gm| {
            let other = ctx.iadd(&lane, &off_reg);
            let g1 = ctx.sh_ld_f32(s_g, &lane);
            let g2 = ctx.sh_ld_f32(s_g, &other);
            let c1 = ctx.sh_ld_u32(s_c, &lane);
            let c2 = ctx.sh_ld_u32(s_c, &other);
            let gt = ctx.fgt(&g2, &g1);
            let ge = ctx.fge(&g2, &g1);
            let le = ctx.fle(&g2, &g1);
            let eq = ge.and(&le);
            let lower = ctx.ult(&c2, &c1);
            let better = gt.or(&eq.and(&lower));
            let a1 = ctx.sh_ld_u32(s_a, &lane);
            let a2 = ctx.sh_ld_u32(s_a, &other);
            let b1 = ctx.sh_ld_u32(s_b, &lane);
            let b2 = ctx.sh_ld_u32(s_b, &other);
            let ng = ctx.select_f32(&better, &g2, &g1);
            let na = ctx.select_u32(&better, &a2, &a1);
            let nb = ctx.select_u32(&better, &b2, &b1);
            let nc = ctx.select_u32(&better, &c2, &c1);
            ctx.sh_st_f32(s_g, &lane, &ng);
            ctx.sh_st_u32(s_a, &lane, &na);
            ctx.sh_st_u32(s_b, &lane, &nb);
            ctx.sh_st_u32(s_c, &lane, &nc);
        });
        ctx.sync_threads();
        off /= 2;
    }
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

/// The `(key, p, seg, rank)` first-move reduction with its level loop
/// written out: the lower key.
fn written_out_min_key(
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
    let mut off = LS_BLOCK / 2;
    while off >= 1 {
        let off_reg = ctx.splat_u32(off);
        let low = ctx.ult(&lane, &off_reg);
        ctx.branch(&low);
        ctx.with_mask(gm, &low, |ctx, _gm| {
            let other = ctx.iadd(&lane, &off_reg);
            let k1 = ctx.sh_ld_u32(s_k, &lane);
            let k2 = ctx.sh_ld_u32(s_k, &other);
            let better = ctx.ult(&k2, &k1);
            let p1 = ctx.sh_ld_u32(s_p, &lane);
            let p2 = ctx.sh_ld_u32(s_p, &other);
            let g1 = ctx.sh_ld_u32(s_s, &lane);
            let g2 = ctx.sh_ld_u32(s_s, &other);
            let r1 = ctx.sh_ld_u32(s_r, &lane);
            let r2 = ctx.sh_ld_u32(s_r, &other);
            let nk = ctx.select_u32(&better, &k2, &k1);
            let np = ctx.select_u32(&better, &p2, &p1);
            let ns = ctx.select_u32(&better, &g2, &g1);
            let nr = ctx.select_u32(&better, &r2, &r1);
            ctx.sh_st_u32(s_k, &lane, &nk);
            ctx.sh_st_u32(s_p, &lane, &np);
            ctx.sh_st_u32(s_s, &lane, &ns);
            ctx.sh_st_u32(s_r, &lane, &nr);
        });
        ctx.sync_threads();
        off /= 2;
    }
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

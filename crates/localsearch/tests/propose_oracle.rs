//! The device local search's closed-form code, pinned by fingerprint,
//! and its select kernels against their written-out tree levels.
//!
//! Both families' propose kernels scan their candidates as one lane pass
//! (`BlockCtx::lane_pass`) whose tally is derived from the pass body
//! (`aco_simt::alu`), and both reduce their per-lane moves through the
//! shared tree collective (`BlockCtx::sh_tree`). Each case runs full
//! passes, round by round, and hashes every propose and select launch —
//! every `KernelStats` and `KernelTime` bit, the executed blocks and
//! every word the kernel writes (the per-block entries and the
//! don't-look bits, or the chosen move) — into one fingerprint per family
//! and size. The table was recorded while each propose kernel was still
//! compared, launch by launch, against its op-by-op form. Each select
//! launch is also still compared against the written-out level loop of
//! its reduction: the `(gain, a, b, city)` best move (2-opt) or the
//! `(key, p, seg, rank)` first move (Or-opt), launched from the same
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

/// FNV-1a over 64-bit words.
struct Fp(u64);

impl Fp {
    fn new() -> Self {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One launch: its bits (see [`launch_bits`]) and the words it wrote.
    fn launch(&mut self, bits: &[u64], words: &[Vec<u32>]) {
        self.word(bits.len() as u64);
        bits.iter().for_each(|&b| self.word(b));
        for buffer in words {
            self.word(buffer.len() as u64);
            buffer.iter().for_each(|&w| self.word(w as u64));
        }
    }
}

/// Launch `kernel` and hash its launch bits and the words of `outs` into
/// `fp`.
fn hash_launch(
    fp: &mut Fp,
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &dyn Kernel,
    gm: &mut GlobalMem,
    outs: &[Out],
) {
    let bits = launch_bits(dev, cfg, kernel, gm);
    fp.launch(&bits, &words(gm, outs));
}

/// Launch the written-out `oracle`, put `outs` back, launch `kernel`,
/// assert both launches and both sets of written words agree and hash
/// the kernel's into `fp`; the memory left is the kernel's.
#[allow(clippy::too_many_arguments)]
fn same_launch(
    fp: &mut Fp,
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
    fp.launch(&bits, &oracle_words);
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

/// A family's round: `round(fp, label, dev, gm, bufs, first_ant,
/// num_ants)` runs one round, hashing its launches into `fp`, and returns
/// whether some ant of the window moved.
type Round<D> = fn(&mut Fp, &str, &DeviceSpec, &mut GlobalMem, D, u32, u32) -> bool;

/// Full passes of one family over every case of `n`, device and window:
/// their fingerprint, labelled `family n=<n>`.
fn passes<D: Copy>(
    family: &str,
    n: usize,
    allocate: Allocate<D>,
    round: Round<D>,
) -> (String, u64) {
    let (mut rounds, mut fp) = (0, Fp::new());
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
                    if !round(&mut fp, &label, &dev, &mut gm, bufs, first_ant, num_ants) {
                        break;
                    }
                }
            }
        }
    }
    assert!(rounds > 0);
    (format!("{family} n={n}"), fp.0)
}

/// Check each fingerprint against the entry of the same label in
/// [`PASSES`]; a mismatch prints every actual fingerprint.
fn compare(actual: &[(String, u64)]) {
    let listing: String =
        actual.iter().map(|(label, fp)| format!("    (\"{label}\", {fp:#018x}),\n")).collect();
    let wrong: Vec<&str> = actual
        .iter()
        .filter(|(label, fp)| !PASSES.contains(&(label.as_str(), *fp)))
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(wrong.is_empty(), "fingerprints differ for {wrong:?}; actual fingerprints:\n{listing}");
}

/// One fingerprint per family and size: every propose and select launch
/// of every round, over each case, device and window, in that order.
const PASSES: &[(&str, u64)] = &[
    ("two_opt n=24", 0x8a2283e3766e0351),
    ("two_opt n=48", 0xecc86ecab18eb69e),
    ("two_opt n=100", 0x34290cb8f876a1a0),
    ("two_opt n=200", 0x53fb94c40e7d55f4),
    ("or_opt n=24", 0x7991cdd45a42e7bd),
    ("or_opt n=48", 0x2653afddad6bb173),
    ("or_opt n=100", 0xed2f3bbb06c679d4),
    ("or_opt n=200", 0x59f18dfd6aec9c36),
];

/// The position scatter of a round.
fn scatter(dev: &DeviceSpec, gm: &mut GlobalMem, pk: PosKernel) {
    launch_threads(dev, &pk.config(), &pk, gm, SimMode::Full, 1).unwrap();
}

/// One 2-opt round: its propose launch, and its select launch against
/// the written-out form; the window starts awake (the buffer is fresh).
fn two_opt_round(
    fp: &mut Fp,
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
    let outs = [
        Out::F32(bufs.block_gain),
        Out::U32(bufs.block_a),
        Out::U32(bufs.block_b),
        Out::U32(bufs.block_city),
        Out::U32(bufs.dont_look),
    ];
    hash_launch(fp, dev, &propose.config(), &propose, gm, &outs);
    let select = TwoOptSelectKernel { bufs, first_ant, num_ants };
    let oracle = WrittenOutSelect { bufs, first_ant };
    let outs = [Out::F32(bufs.chosen_gain), Out::U32(bufs.chosen_a), Out::U32(bufs.chosen_b)];
    same_launch(fp, label, dev, &select.config(), [&oracle, &select], gm, &outs);
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    if gm.f32(bufs.chosen_gain)[window].iter().all(|&g| g <= 0.0) {
        return false;
    }
    let ak = TwoOptApplyKernel { bufs, first_ant, num_ants };
    launch_threads(dev, &ak.config(), &ak, gm, SimMode::Full, 1).unwrap();
    true
}

/// One Or-opt round: its propose launch, and its select launch against
/// the written-out form.
fn or_opt_round(
    fp: &mut Fp,
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
    let outs = [
        Out::U32(bufs.block_key),
        Out::U32(bufs.block_p),
        Out::U32(bufs.block_seg),
        Out::U32(bufs.block_rank),
    ];
    hash_launch(fp, dev, &propose.config(), &propose, gm, &outs);
    let select = OrOptSelectKernel { bufs, first_ant, num_ants };
    let oracle = WrittenOutOrSelect { bufs, first_ant };
    let outs = [
        Out::U32(bufs.chosen_key),
        Out::U32(bufs.chosen_p),
        Out::U32(bufs.chosen_seg),
        Out::U32(bufs.chosen_rank),
    ];
    same_launch(fp, label, dev, &select.config(), [&oracle, &select], gm, &outs);
    let window = first_ant as usize..(first_ant + num_ants) as usize;
    if gm.u32(bufs.chosen_key)[window].iter().all(|&k| k == u32::MAX) {
        return false;
    }
    let ak = OrOptApplyKernel { bufs, first_ant, num_ants };
    launch_threads(dev, &ak.config(), &ak, gm, SimMode::Full, 1).unwrap();
    true
}

#[test]
fn two_opt_rounds_match_their_fingerprints() {
    compare(&[24, 48].map(|n| passes("two_opt", n, TwoOptDev::allocate, two_opt_round)));
}

#[test]
#[ignore = "release tier: n = 100 and 200"]
fn two_opt_rounds_match_their_fingerprints_at_100_and_200() {
    compare(&[100, 200].map(|n| passes("two_opt", n, TwoOptDev::allocate, two_opt_round)));
}

#[test]
fn or_opt_rounds_match_their_fingerprints() {
    compare(&[24, 48].map(|n| passes("or_opt", n, OrOptDev::allocate, or_opt_round)));
}

#[test]
#[ignore = "release tier: n = 100 and 200"]
fn or_opt_rounds_match_their_fingerprints_at_100_and_200() {
    compare(&[100, 200].map(|n| passes("or_opt", n, OrOptDev::allocate, or_opt_round)));
}

// --- the written-out select kernels ----------------------------------------------

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

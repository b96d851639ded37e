//! Every kernel that charges a loop in closed form, pinned by fingerprint,
//! and the argmax tree against its written-out level loop.
//!
//! A lane pass ([`BlockCtx::lane_pass`]) charges a branch-free loop's
//! data-independent instructions as one tally, derived from the pass body
//! itself (`aco_simt::alu`), and runs only its loads and stores through
//! the memory models. Each case below launches the kernel on fresh
//! memory and hashes, bit for bit, every `KernelStats` field, every
//! `KernelTime` field, the executed blocks and every buffer the kernel
//! writes, on both modeled devices, under full and sampled execution and
//! with the blocks spread over four host threads, into one fingerprint
//! per row (or mode) and size:
//!
//! - the task-parallel tour kernel (Table II rows 1–6): probability pass,
//!   candidate loop and roulette, argmax fallback, tabu tests and marks
//!   in all three tabu layouts, shared-tabu zeroing;
//! - the GPU ACS tour kernel: its candidate loop, the exploitation pick
//!   and roulette it shares with rows 4–6, the all-city fallback, the
//!   move and the local update of `tau`;
//! - the data-parallel tour kernel (rows 7–8): one pass per tile;
//! - the scatter-to-gather pheromone rows: one pass per staged tile, or
//!   per run of up to θ steps in the plain row.
//!
//! The tables were recorded while each kernel was still compared, on the
//! same grid, against its op-by-op form, so a changed fingerprint means a
//! changed counter, modeled-time bit or written word. The argmax tree
//! ([`BlockCtx::sh_argmax_tree`]), which charges its levels in closed
//! form, is still compared against its written-out level loop.
//!
//! The task rows' and the ACS kernel's full grids are `#[ignore]`d for
//! the release tier (`cargo test --release --test lane_pass_oracle --
//! --include-ignored`); the debug tier runs their n = 5 and n = 24
//! columns.

use aco_gpu::core::gpu::acs::AcsTourKernel;
use aco_gpu::core::gpu::choice::ChoiceKernel;
use aco_gpu::core::gpu::pheromone::{ScatterGatherKernel, ScatterMode};
use aco_gpu::core::gpu::tour::{DataParallelTourKernel, TaskTourKernel, TourStrategy};
use aco_gpu::core::gpu::{run_tour, ColonyBuffers};
use aco_gpu::core::AcoParams;
use aco_gpu::simt::prelude::*;
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
    fn launch(&mut self, (bits, words): &(Vec<u64>, Vec<u32>)) {
        self.word(bits.len() as u64);
        bits.iter().for_each(|&b| self.word(b));
        self.word(words.len() as u64);
        words.iter().for_each(|&w| self.word(w as u64));
    }
}

/// Check each of `actual`'s fingerprints against the entry of the same
/// label in `table`; a mismatch prints every actual fingerprint.
fn compare(actual: Vec<(String, u64)>, table: &[(&str, u64)]) {
    let listing: String =
        actual.iter().map(|(label, fp)| format!("    (\"{label}\", {fp:#018x}),\n")).collect();
    let wrong: Vec<&str> = actual
        .iter()
        .filter(|(label, fp)| !table.contains(&(label.as_str(), *fp)))
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(wrong.is_empty(), "fingerprints differ for {wrong:?}; actual fingerprints:\n{listing}");
}

/// Run the written-out form and the kernel itself through `run` (fresh
/// memory, the launch, then the launch bits and the written words),
/// assert both agree and return the kernel's.
fn assert_same(
    case: &str,
    forms: [&dyn Kernel; 2],
    run: impl Fn(&dyn Kernel) -> (Vec<u64>, Vec<u32>),
) -> (Vec<u64>, Vec<u32>) {
    let [(oracle_bits, oracle_words), kernel] = forms.map(run);
    assert_eq!(kernel.0, oracle_bits, "{case}: counters and modeled time");
    assert_eq!(kernel.1, oracle_words, "{case}: memory");
    kernel
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

/// Rows 1–6 at every `m` of the grid for the given sizes, both devices,
/// every execution mode: one fingerprint per row and size.
fn task_rows(sizes: &[usize], rows: &[TourStrategy]) {
    let mut fps = Vec::new();
    for &n in sizes {
        let inst = tsp::uniform_random("lane-pass-task", n, 900.0, n as u64);
        for &row in rows {
            let opts = row.task_opts().expect("a task-parallel row");
            let mut fp = Fp::new();
            for m in [1, 8, 40, 129] {
                for dev in devices() {
                    for exec in EXECS {
                        let (_, bufs) = colony(&inst, m);
                        let kernel = TaskTourKernel {
                            bufs,
                            opts,
                            alpha: 1.0,
                            beta: 2.0,
                            seed: 11,
                            iteration: 3,
                        };
                        let (mut gm, bufs) = colony(&inst, m);
                        let bits = launch_bits(&dev, &kernel.config(&dev), &kernel, &mut gm, exec);
                        fp.launch(&(bits, tour_words(&gm, bufs)));
                    }
                }
            }
            fps.push((format!("{row:?} n={n}"), fp.0));
        }
    }
    compare(fps, TASK_ROWS);
}

#[test]
fn task_rows_match_their_fingerprints() {
    task_rows(&[5, 24], &TourStrategy::ALL[..6]);
}

#[test]
#[ignore = "the full grid; run in release with --include-ignored"]
fn task_rows_1_to_3_match_their_fingerprints_at_every_size() {
    task_rows(&[48, 100, 150], &TourStrategy::ALL[..3]);
}

#[test]
#[ignore = "the full grid; run in release with --include-ignored"]
fn task_rows_4_to_6_match_their_fingerprints_at_every_size() {
    task_rows(&[48, 100, 150], &TourStrategy::ALL[3..6]);
}

/// One fingerprint per Table II row 1–6 and size: every `m`, device and
/// execution mode of [`task_rows`], in that order.
const TASK_ROWS: &[(&str, u64)] = &[
    ("Baseline n=5", 0x5e5a1c763e1702c0),
    ("ChoiceKernel n=5", 0xf41809f2f8b97f8f),
    ("DeviceRng n=5", 0x76e42904821664c5),
    ("NNList n=5", 0xd223725032ba1255),
    ("NNListShared n=5", 0x4034d04f46101887),
    ("NNListSharedTex n=5", 0x1fd9918b29f3f706),
    ("Baseline n=24", 0x99d0ed92304a0ec3),
    ("ChoiceKernel n=24", 0x44d0336727078c46),
    ("DeviceRng n=24", 0xd2e6c1e4b3d514c9),
    ("NNList n=24", 0xcba901fd147fb738),
    ("NNListShared n=24", 0x4815a1e87b948f4c),
    ("NNListSharedTex n=24", 0x74ca5f58cc92bdaf),
    ("Baseline n=48", 0x7daf935ff2496ef6),
    ("ChoiceKernel n=48", 0xc020c9208f7d2ef9),
    ("DeviceRng n=48", 0xe16518b6c12a141f),
    ("NNList n=48", 0x9d8bd560acab66ba),
    ("NNListShared n=48", 0x6f7a250248b4df91),
    ("NNListSharedTex n=48", 0xdb37dcb0e95b66e7),
    ("Baseline n=100", 0xb5cbd45e1c46ac0a),
    ("ChoiceKernel n=100", 0x2eeb9b6543edb51f),
    ("DeviceRng n=100", 0x0278e08e0700340b),
    ("NNList n=100", 0x8155b202c6c21c35),
    ("NNListShared n=100", 0xb43be193ff5beaf5),
    ("NNListSharedTex n=100", 0x7166b2222380434c),
    ("Baseline n=150", 0x4606c0fa1356ba31),
    ("ChoiceKernel n=150", 0xbc97cbbb3f25284a),
    ("DeviceRng n=150", 0x308a4213ea1bdda6),
    ("NNList n=150", 0x3a20813e7dcae8d0),
    ("NNListShared n=150", 0xfa981cf0c8933c18),
    ("NNListSharedTex n=150", 0xe1d9085bac2a5a07),
];

// --- GPU ACS ---------------------------------------------------------------------

/// The `tau0` of the ACS cases.
const ACS_TAU0: f32 = 1e-4;

/// An ACS colony's memory: `eta^beta` in the choice table (the Choice
/// kernel at `alpha = 0`), `tau` off `tau0` by a per-cell pattern so the
/// exploitation pick weighs both, and a candidate list short enough that
/// the all-city fallback runs at every size.
fn acs_colony(inst: &tsp::TspInstance, m: usize) -> (GlobalMem, ColonyBuffers) {
    let n = inst.n();
    let mut gm = GlobalMem::new();
    let params = AcoParams::default().nn((n / 4).clamp(1, 8)).ants(m).seed(13);
    let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
    let ck = ChoiceKernel { bufs, alpha: 0.0, beta: 2.0 };
    launch(&DeviceSpec::tesla_m2050(), &ck.config(), &ck, &mut gm, SimMode::Full).unwrap();
    let tau: Vec<f32> = (0..n * n).map(|i| ACS_TAU0 * (1.0 + (i * 7 % 11) as f32 / 4.0)).collect();
    gm.write_f32(bufs.tau, &tau);
    bufs.clear_visited(&mut gm);
    (gm, bufs)
}

fn acs_kernel(bufs: ColonyBuffers) -> AcsTourKernel {
    AcsTourKernel { bufs, q0: 0.9, xi: 0.1, tau0: ACS_TAU0, seed: 11, iteration: 3 }
}

/// The ACS tour kernel at every `m` of the grid (partial 64-lane blocks
/// among them), both devices and every execution mode: one fingerprint
/// per size, over the tours, lengths and every other colony word
/// including the whole `tau` buffer the local update writes.
fn acs_tour(sizes: &[usize]) {
    let mut fps = Vec::new();
    for &n in sizes {
        let inst = tsp::uniform_random("lane-pass-acs", n, 900.0, n as u64);
        let mut fp = Fp::new();
        for m in [1, 8, 65, 129] {
            for dev in devices() {
                for exec in EXECS {
                    let (mut gm, bufs) = acs_colony(&inst, m);
                    let kernel = acs_kernel(bufs);
                    let bits = launch_bits(&dev, &kernel.config(), &kernel, &mut gm, exec);
                    let mut words = tour_words(&gm, bufs);
                    words.extend(f32_words(gm.f32(bufs.tau)));
                    fp.launch(&(bits, words));
                }
            }
        }
        fps.push((format!("n={n}"), fp.0));

        // At m = 65 the partial second block diverges once on `is_ant`;
        // every other divergent branch is a warp of the full first block
        // split between the candidate rule and the all-city fallback.
        let (mut gm, bufs) = acs_colony(&inst, 65);
        let kernel = acs_kernel(bufs);
        let dev = DeviceSpec::tesla_m2050();
        let r = launch(&dev, &kernel.config(), &kernel, &mut gm, SimMode::Full).unwrap();
        assert!(r.stats.divergent_branches > 1.0, "n={n}: the fallback never split a warp");
    }
    compare(fps, ACS_TOUR);
}

#[test]
fn acs_tour_matches_its_fingerprints() {
    acs_tour(&[5, 24]);
}

#[test]
#[ignore = "the full grid; run in release with --include-ignored"]
fn acs_tour_matches_its_fingerprints_at_every_size() {
    acs_tour(&[48, 100, 150]);
}

/// One fingerprint per size of the ACS tour kernel: every `m`, device and
/// execution mode of [`acs_tour`], in that order.
const ACS_TOUR: &[(&str, u64)] = &[
    ("n=5", 0x3604f35bf4eea3e2),
    ("n=24", 0x97d59937fc82afc4),
    ("n=48", 0x248d60f7d9ea5dd1),
    ("n=100", 0xa706dfcd18f4e3ad),
    ("n=150", 0xc711384a841e080e),
];

// --- Table II rows 7–8 ---------------------------------------------------------

#[test]
fn data_parallel_rows_match_their_fingerprints() {
    let mut cases = 0;
    let mut fps = Vec::new();
    for n in [5, 20, 33, 48, 64, 100, 129, 300] {
        let inst = tsp::uniform_random("dp-oracle", n, 900.0, n as u64);
        let mut fp = Fp::new();
        for dev in devices() {
            for texture in [false, true] {
                for seed in [3, 17] {
                    // Every layout fits the 32-tile tabu: n = 300 at block
                    // 32 is 10 tiles.
                    for block_override in [None, Some(32), Some(512)] {
                        for exec in EXECS {
                            let (_, bufs) = colony(&inst, 5);
                            let kernel = DataParallelTourKernel {
                                bufs,
                                texture,
                                seed,
                                iteration: 2,
                                block_override,
                            };
                            let (mut gm, bufs) = colony(&inst, 5);
                            let bits = launch_bits(&dev, &kernel.config(), &kernel, &mut gm, exec);
                            fp.launch(&(bits, tour_words(&gm, bufs)));
                            cases += 1;
                        }
                    }
                }
            }
        }
        fps.push((format!("n={n}"), fp.0));
    }
    assert_eq!(cases, 8 * 2 * 2 * 2 * 3 * 3);
    compare(fps, DATA_PARALLEL_ROWS);
}

/// An M2050 with 8 banks, fewer than its 32-lane conflict group: there a
/// group's contiguous words fall 4 to a bank.
fn few_banks() -> DeviceSpec {
    DeviceSpec { shared_banks: 8, ..DeviceSpec::tesla_m2050() }
}

#[test]
fn data_parallel_rows_match_their_fingerprints_with_few_banks() {
    let dev = few_banks();
    let mut fps = Vec::new();
    for n in [33, 100] {
        let inst = tsp::uniform_random("dp-oracle", n, 900.0, n as u64);
        let mut fp = Fp::new();
        for texture in [false, true] {
            for exec in EXECS {
                let (_, bufs) = colony(&inst, 5);
                let kernel = DataParallelTourKernel::new(bufs, texture, 3, 2);
                let (mut gm, bufs) = colony(&inst, 5);
                let bits = launch_bits(&dev, &kernel.config(), &kernel, &mut gm, exec);
                fp.launch(&(bits, tour_words(&gm, bufs)));
            }
        }
        fps.push((format!("8 banks n={n}"), fp.0));
    }
    compare(fps, DATA_PARALLEL_ROWS);
}

/// One fingerprint per size of rows 7–8: every device, texture flag,
/// seed, block layout and execution mode, in that order; and of the
/// few-banks device's texture flags and execution modes.
const DATA_PARALLEL_ROWS: &[(&str, u64)] = &[
    ("n=5", 0xccd04354620c4366),
    ("n=20", 0x54bc27b62deed730),
    ("n=33", 0x31ea1dfd4b960e74),
    ("n=48", 0xedf5681e341d3c7b),
    ("n=64", 0x7700122474c9f634),
    ("n=100", 0xd448a4544b8a2536),
    ("n=129", 0x8abd39727c89c734),
    ("n=300", 0xa7c3ae1302895287),
    ("8 banks n=33", 0x8af2ada7dae8cd4a),
    ("8 banks n=100", 0x63eb4cf985029233),
];

// --- the scatter-to-gather pheromone rows -----------------------------------------

#[test]
fn scatter_rows_match_their_fingerprints() {
    let mut fps = Vec::new();
    for mode in [ScatterMode::Plain, ScatterMode::Tiled, ScatterMode::TiledReduced] {
        for n in [5, 24, 60] {
            let inst = tsp::uniform_random("scatter-oracle", n, 900.0, n as u64);
            let mut fp = Fp::new();
            for m in [3, 8] {
                for dev in devices() {
                    for exec in EXECS {
                        // A colony with tours to deposit.
                        let toured = || {
                            let (mut gm, bufs) = colony(&inst, m);
                            let strategy = TourStrategy::NNList;
                            run_tour(&dev, &mut gm, bufs, strategy, 1.0, 2.0, 5, 0, SimMode::Full)
                                .unwrap();
                            (gm, bufs)
                        };
                        let (mut gm, bufs) = toured();
                        let kernel = ScatterGatherKernel { bufs, rho: 0.5, mode };
                        let bits = launch_bits(&dev, &kernel.config(), &kernel, &mut gm, exec);
                        fp.launch(&(bits, f32_words(gm.f32(bufs.tau)).collect()));
                    }
                }
            }
            fps.push((format!("{mode:?} n={n}"), fp.0));
        }
    }
    compare(fps, SCATTER_ROWS);
}

/// One fingerprint per scatter mode and size: every `m`, device and
/// execution mode, in that order.
const SCATTER_ROWS: &[(&str, u64)] = &[
    ("Plain n=5", 0xd31fe8d0927ef6a2),
    ("Plain n=24", 0x455b7c617156b1b3),
    ("Plain n=60", 0xf5cf2c072ba4703c),
    ("Tiled n=5", 0xd1a9ab92dc068566),
    ("Tiled n=24", 0x2f8e394a21bfc0a1),
    ("Tiled n=60", 0x40e524e81195c8e8),
    ("TiledReduced n=5", 0xd7851076caaf62ad),
    ("TiledReduced n=24", 0xfd51004eea630c83),
    ("TiledReduced n=60", 0x0528ae1272ad3d10),
];

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

//! SIMT-interpreter micro-benchmark → `BENCH_interp.json`.
//!
//! ```text
//! interp_bench [--label S] [--append] [--reps R] [--out FILE]
//! interp_bench --check FILE [--reps R]
//! ```
//!
//! `--check` is the CI regression gate: it re-runs every op of the
//! artifact's **last** history entry and fails (exit 1) only on counts —
//! an op whose allocs/op rose more than 0.5 above that entry (the
//! zero-alloc tripwire is absolute), a launch family whose
//! allocs/launch did, or a baseline op the run no longer measures. An
//! ns/op more than [`NS_ADVISORY`] above the entry prints a
//! `gate ADVISORY` line and never fails: wall time swings up to 2x
//! between runs of one binary on a shared host. It runs at the entry's
//! recorded `reps` and `trials` and refuses (exit 2) an explicit `--reps`
//! that differs, or an entry that records no config, because ns/op and
//! allocs/op are only comparable at one config (allocs/op in particular
//! scales with 1/reps).
//!
//! Each entry records its config — `reps` per launch, `trials` (new
//! entries always run [`TRIALS`]), the `host_cpus` it ran on and the git
//! `rev` it was built from — and each op's ns/op is the minimum over the
//! trials (the least-disturbed run; the host's noise only ever adds),
//! with the median over the trials beside it as `ns_median` (entries
//! that predate that column have none).
//!
//! Measures the per-operation cost of the `BlockCtx` primitives the
//! kernels are built from — wall nanoseconds *and allocator calls* per
//! op — on a 256-lane block of the Tesla C1060 (`global_ld_uniform` is
//! the broadcast load every lane of the scatter-to-gather plain row
//! reads a tour word with; the two bank-model
//! rows, `shared_reduce` and `shared_conflict`, and the
//! `shared_argmax_tree` collective run on the M2050).
//! `global_ld_strided` is the task-parallel rows' tabu and probability
//! load at m = 8 through the M2050's L1: lanes 0-7 of a 128-lane block
//! read word `lane * 100 + r % 100` at rep `r`, one row per ant.
//! `tex_ld_gather` is the miss-heavy gather of the device 2-opt's
//! distance reads on the C1060's texture cache: lane `l` of a 128-lane
//! block reads word `(l % 100) * 100 + (r * 37) % 100` of a 100 x 100
//! f32 matrix at rep `r`; `global_ld_gather` is the same pattern as a
//! global load through the M2050's L1.
//! `roulette_scan` is the roulette scan of Table II rows 1-3 as a
//! `BlockCtx::loop_pass` on the same lanes and rows of the M2050, lane `l`
//! summing its row for `8 + l` trips; one op is one trip. One row times a
//! whole kernel instead: `dp_tour_tile` is one construction step of the
//! data-parallel tour kernel with texture loads (Table II row 8) at
//! n = 100 on the M2050 — one 128-lane tile: the choice pass, the
//! barrier, the argmax tree, the visited mark and lane 0's tour and
//! distance accesses — per ant, over `ceil(reps / 99)` ants.
//! `acs_tour_step` is one construction step of the GPU ACS tour kernel at
//! n = 48 on the M2050: 8 ants in one 64-lane block — the candidate
//! loop, the exploitation pick and roulette, the all-city fallback once a
//! list runs out, the move and the local update — over the 47 steps of
//! one launch, whatever `reps`; each launch starts from the `tau` the
//! last one left.
//! `task_prob_step` is one construction step of the task-parallel kernel
//! without CURAND (Table II row 3) at n = 100 on the C1060: 8 ants in one
//! 128-lane block, the regime of the `gpu-kernels` benchmark — the
//! probability pass over every city (most of the step), the roulette
//! scan, the tabu mark and the tour and distance accesses — over the 99
//! steps of one launch, whatever `reps`. The
//! allocation column is the regression tripwire for the pooled register
//! file: every row must stay at (or very near) zero allocations per op
//! once the thread-local pools are warm; a future change that
//! reintroduces per-op `Vec` churn shows up here immediately, long
//! before it is visible in end-to-end numbers.
//!
//! The `launches` section measures allocator calls **per
//! `launch_threads` call** of a read-heavy kernel family at 1 and 4
//! exec threads — the tripwire for the COW shadow memory: forking a
//! shadow worker clones buffer *handles*, so allocs/launch must stay
//! flat however large the read-only inputs are. The `--check` gate
//! holds each family within the same ±0.5 slack as the per-op rows.
//!
//! The artifact keeps a history entry per PR.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aco_bench::json::Json;
use aco_core::gpu::acs::AcsTourKernel;
use aco_core::gpu::choice::ChoiceKernel;
use aco_core::gpu::tour::{DataParallelTourKernel, TaskTourKernel, TourStrategy};
use aco_core::gpu::ColonyBuffers;
use aco_core::AcoParams;
use aco_simt::prelude::*;

/// Counts every allocator call so the bench can report allocs/op.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System` verbatim; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One micro-kernel: `reps` repetitions of a single primitive inside one
/// 256-lane block.
struct OpKernel {
    op: &'static str,
    reps: u32,
    buf_f: DevicePtr<f32>,
    buf_u: DevicePtr<u32>,
}

impl Kernel for OpKernel {
    fn name(&self) -> &'static str {
        self.op
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let a = ctx.thread_idx();
        let af = ctx.u2f(&a);
        let bf = ctx.splat_f32(1.5);
        let idx = a.clone();
        match self.op {
            "fmul" => {
                for _ in 0..self.reps {
                    let _ = ctx.fmul(&af, &bf);
                }
            }
            "fma" => {
                for _ in 0..self.reps {
                    let _ = ctx.fma(&af, &bf, &af);
                }
            }
            "fdiv_sfu" => {
                for _ in 0..self.reps {
                    let _ = ctx.fdiv(&af, &bf);
                }
            }
            "cmp_select" => {
                for _ in 0..self.reps {
                    let m = ctx.flt(&af, &bf);
                    let _ = ctx.select_f32(&m, &af, &bf);
                }
            }
            "cmp_select_partial" => {
                // The same op under a half-active mask (even lanes): every
                // word and warp is partial, so this row times the sparse
                // lane walk that full-mask rows skip.
                let one = ctx.splat_u32(1);
                let odd = ctx.iand(&a, &one);
                let zero = ctx.splat_u32(0);
                let even = ctx.ueq(&odd, &zero);
                ctx.with_mask(gm, &even, |ctx, _| {
                    for _ in 0..self.reps {
                        let m = ctx.flt(&af, &bf);
                        let _ = ctx.select_f32(&m, &af, &bf);
                    }
                });
            }
            "if_else" => {
                let m = ctx.flt(&af, &bf);
                for _ in 0..self.reps {
                    ctx.if_else(
                        gm,
                        &m,
                        |ctx, _| ctx.charge(Op::IAlu, 1),
                        |ctx, _| ctx.charge(Op::IAlu, 1),
                    );
                }
            }
            "global_ld" => {
                for _ in 0..self.reps {
                    let _ = ctx.ld_global_f32(gm, self.buf_f, &idx);
                }
            }
            "global_ld_strided" => {
                // Lanes 0-7 of a 128-lane block, one 100-word row each: the
                // task-parallel rows' tabu and probability loads at m = 8.
                let eight = ctx.splat_u32(8);
                let ants = ctx.ult(&a, &eight);
                ctx.with_mask(gm, &ants, |ctx, gm| {
                    for r in 0..self.reps {
                        let at = |l: usize| l as u32 * 100 + r % 100;
                        let mut pass = ctx.lane_pass(Tally::NONE);
                        pass.ld_f32(gm, self.buf_f, false, at, |_, v| {
                            std::hint::black_box(v);
                        });
                    }
                });
            }
            "tex_ld_gather" | "global_ld_gather" => {
                // The 2-opt propose kernel's distance gathers: lane `l` of
                // 128 reads column `r * 37 % 100` of row `l % 100` of a
                // 100 x 100 matrix, a new line for most lanes every rep.
                let texture = self.op == "tex_ld_gather";
                for r in 0..self.reps {
                    let at = |l: usize| (l as u32 % 100) * 100 + r * 37 % 100;
                    let mut pass = ctx.lane_pass(Tally::NONE);
                    pass.ld_f32(gm, self.buf_f, texture, at, |_, v| {
                        std::hint::black_box(v);
                    });
                }
            }
            "global_ld_uniform" => {
                // One word for every lane, a new line every 32 reps.
                for r in 0..self.reps {
                    let _ = ctx.ld_global_u32_uniform(gm, self.buf_u, r % 256);
                }
            }
            "global_st" => {
                for _ in 0..self.reps {
                    ctx.st_global_f32(gm, self.buf_f, &idx, &af);
                }
            }
            "tex_ld" => {
                for _ in 0..self.reps {
                    let _ = ctx.ld_tex_f32(gm, self.buf_f, &idx);
                }
            }
            "shared_ld_st" => {
                let sh = ctx.shared_alloc_f32(256);
                for _ in 0..self.reps {
                    ctx.sh_st_f32(sh, &idx, &af);
                    let _ = ctx.sh_ld_f32(sh, &idx);
                }
            }
            "shared_reduce" => {
                // Lanes below 64 compare `lane` with `lane + 64`: strictly
                // increasing words, so this row times the bank model's
                // shortcut.
                let sh = ctx.shared_alloc_f32(256);
                ctx.sh_st_f32(sh, &idx, &af);
                let s = ctx.splat_u32(64);
                let is_lo = ctx.ult(&a, &s);
                ctx.with_mask(gm, &is_lo, |ctx, _| {
                    let other = ctx.iadd(&a, &s);
                    for _ in 0..self.reps {
                        let vo = ctx.sh_ld_f32(sh, &other);
                        let vm = ctx.sh_ld_f32(sh, &a);
                        let better = ctx.fgt(&vo, &vm);
                        let nv = ctx.select_f32(&better, &vo, &vm);
                        ctx.sh_st_f32(sh, &a, &nv);
                    }
                });
            }
            "shared_argmax_tree" => {
                // The data-parallel tour kernel's argmax (Table II rows
                // 7-8): all 8 levels of a 256-slot tree per op.
                let sh_val = ctx.shared_alloc_f32(256);
                let sh_idx = ctx.shared_alloc_u32(256);
                ctx.sh_st_f32(sh_val, &idx, &af);
                ctx.sh_st_u32(sh_idx, &idx, &a);
                for _ in 0..self.reps {
                    ctx.sh_argmax_tree(sh_val, sh_idx);
                }
            }
            "shared_conflict" => {
                // Stride-2 words: two-way conflicts in every warp on the
                // 32-bank M2050 — the bank model's counted path.
                let sh = ctx.shared_alloc_f32(256);
                let two = ctx.splat_u32(2);
                let doubled = ctx.imul(&a, &two);
                let mask = ctx.splat_u32(255);
                let strided = ctx.iand(&doubled, &mask);
                for _ in 0..self.reps {
                    ctx.sh_st_f32(sh, &strided, &af);
                    let _ = ctx.sh_ld_f32(sh, &strided);
                }
            }
            "atomic_add" => {
                let eight = ctx.splat_u32(8);
                let target = ctx.imod(&a, &eight);
                for _ in 0..self.reps {
                    ctx.atomic_add_f32(gm, self.buf_f, &target, &bf);
                }
            }
            "lcg_rng" => {
                let mut state = ctx.reg_from_fn_u32(|l| l as u32 + 1);
                for _ in 0..self.reps {
                    let _ = ctx.lcg_next_f32(&mut state);
                }
            }
            "roulette_loop" => {
                // A loop_while whose lanes retire progressively — the
                // divergence pattern of the proportional roulette.
                let _ = self.buf_u;
                for _ in 0..self.reps / 16 {
                    let mut trips = ctx.splat_u32(0);
                    let one = ctx.splat_u32(1);
                    let lanes = ctx.thread_idx();
                    let sixteen = ctx.splat_u32(16);
                    let cap = ctx.imod(&lanes, &sixteen);
                    ctx.loop_while(gm, |ctx, _| {
                        let next = ctx.iadd(&trips, &one);
                        ctx.assign_u32(&mut trips, &next);
                        ctx.ult(&trips, &cap)
                    });
                }
            }
            "roulette_scan" => {
                // The roulette scan of Table II rows 1-3 as a loop pass at
                // m = 8: lanes 0-7 of a 128-lane block scan their own
                // 100-word row of ones from column `s % 80`, lane `l` for
                // `8 + l` trips, so lanes retire one by one and each scan
                // is 16 trips (the last one exits).
                let test = Tally::NONE.op(Op::Branch, 2).op(Op::FAlu, 2);
                let step = Tally::NONE.op(Op::IAlu, 2).op(Op::Mov, 2).op(Op::FAlu, 1);
                let eight = ctx.splat_u32(8);
                let ants = ctx.ult(&a, &eight);
                ctx.with_mask(gm, &ants, |ctx, gm| {
                    for s in 0..self.reps / 16 {
                        let row = |l: usize| l as u32 * 100 + s % 80;
                        let mut scan = (ctx.splat_u32(0), ctx.splat_f32(1.0));
                        ctx.loop_pass(
                            &mut scan,
                            test,
                            step,
                            |(j, cum), l| cum.lane(l) < 9.0 + l as f32 && j.lane(l) < 99,
                            |pass, (j, cum)| {
                                let next = |l| {
                                    j.set_lane(l, j.lane(l) + 1);
                                    row(l) + j.lane(l)
                                };
                                pass.ld_f32(gm, self.buf_f, false, next, |l, p| {
                                    cum.set_lane(l, cum.lane(l) + p)
                                });
                            },
                        );
                    }
                });
            }
            other => unreachable!("unknown op {other}"),
        }
    }
}

/// The COW-shadow workload: each block reads a large read-only buffer
/// (texture path) and writes one word per lane into a small output — the
/// allocation shape of the batched-LS hot path, where distance/NN-list
/// inputs dwarf the per-launch writes. Pre-COW, `launch_threads` with
/// shadow workers deep-copied every buffer per group; with `Arc`-backed
/// copy-on-write buffers only the dirtied output materialises, so
/// allocs/launch stays flat as the big read-only input grows.
struct ShadowKernel {
    big: DevicePtr<f32>,
    out: DevicePtr<u32>,
}

impl Kernel for ShadowKernel {
    fn name(&self) -> &'static str {
        "cow_shadow"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let tid = ctx.global_thread_idx();
        let _ = ctx.ld_tex_f32(gm, self.big, &tid);
        ctx.st_global_u32(gm, self.out, &tid, &tid);
    }
}

/// Allocator calls per `launch_threads` call of the [`ShadowKernel`]
/// family at a given exec-thread count (8 blocks over a 64 Ki-word
/// read-only input). `launches` is the counted sample size; the family
/// launch count itself is deterministic harness structure.
struct LaunchAllocResult {
    family: String,
    threads: usize,
    launches: u64,
    allocs_per_launch: f64,
}

fn run_launches(threads: usize) -> LaunchAllocResult {
    let dev = DeviceSpec::tesla_c1060();
    let mut gm = GlobalMem::new();
    let blocks = 8u32;
    let big = gm.alloc_f32(65_536);
    let out = gm.alloc_u32((blocks * 256) as usize);
    let k = ShadowKernel { big, out };
    let cfg = LaunchConfig::new(blocks, 256);
    // Warm-up launch: pools, caches, and the first shadow forks.
    launch_threads(&dev, &cfg, &k, &mut gm, SimMode::Full, threads).unwrap();
    let launches = 32u64;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..launches {
        launch_threads(&dev, &cfg, &k, &mut gm, SimMode::Full, threads).unwrap();
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    LaunchAllocResult {
        family: format!("cow_shadow_t{threads}"),
        threads,
        launches,
        allocs_per_launch: allocs as f64 / launches as f64,
    }
}

/// Exec-thread counts the launch-allocation section measures: the
/// single-threaded reference and a forked-shadow run.
const LAUNCH_THREADS: [usize; 2] = [1, 4];

const OPS: [&str; 24] = [
    "fmul",
    "fma",
    "fdiv_sfu",
    "cmp_select",
    "cmp_select_partial",
    "if_else",
    "global_ld",
    "global_ld_strided",
    "global_ld_uniform",
    "global_ld_gather",
    "global_st",
    "tex_ld",
    "tex_ld_gather",
    "shared_ld_st",
    "shared_reduce",
    "shared_argmax_tree",
    "shared_conflict",
    "atomic_add",
    "lcg_rng",
    "roulette_loop",
    "roulette_scan",
    "dp_tour_tile",
    "task_prob_step",
    "acs_tour_step",
];

/// One op of a history entry or of a fresh run; `ns_median` is `None` on
/// entries that predate the column.
struct OpRow {
    op: String,
    ns_per_op: f64,
    ns_median: Option<f64>,
    allocs_per_op: f64,
}

/// Allowed absolute rise in allocs/op before the gate fails: the pooled
/// interpreter holds every row at ~0, so any systematic per-op churn
/// clears this slack immediately while counter jitter does not.
const ALLOC_SLACK: f64 = 0.5;

/// Relative ns/op rise above the baseline that `--check` reports as
/// advisory. Wall time is never a hard gate here.
const NS_ADVISORY: f64 = 0.5;

/// The config an entry ran under.
#[derive(Clone, Copy)]
struct Config {
    reps: u32,
    trials: u32,
}

/// Reps per launch of the baseline config.
const DEFAULT_REPS: u32 = 4096;

/// Trials per op of a new entry.
const TRIALS: u32 = 5;

/// `--check`: re-run the last committed entry's ops at its recorded
/// config and compare. Exit 1 on an allocation-count regression or a
/// missing op, exit 2 when the entry records no config or an explicit
/// `--reps` contradicts it; ns/op overruns are only reported.
fn check(path: &std::path::Path, reps: Option<u32>) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check: could not read {}: {e}", path.display());
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check: could not parse {}: {e}", path.display());
        std::process::exit(2);
    });
    let Some(last) = doc.get("history").and_then(Json::arr).and_then(|h| h.last()) else {
        eprintln!("check: no usable history in {}", path.display());
        std::process::exit(2);
    };
    let entry = Entry::parse(last);
    let label = &entry.label;
    let Some(config) = entry.config else {
        eprintln!("check: entry '{label}' records no reps/trials, so nothing is comparable to it");
        std::process::exit(2);
    };
    if let Some(asked) = reps.filter(|&r| r != config.reps) {
        eprintln!(
            "check: refusing --reps {asked}: entry '{label}' was recorded at {}, and its \
             numbers are only comparable at that config (drop the flag)",
            config.reps
        );
        std::process::exit(2);
    }
    let baseline = &entry.ops;
    if baseline.is_empty() {
        eprintln!("check: entry '{label}' has no ops");
        std::process::exit(2);
    }
    println!(
        "gate: entry '{label}', {} ops at reps {} x trials {}",
        baseline.len(),
        config.reps,
        config.trials
    );
    let fresh: Vec<OpRow> = OPS.iter().map(|&op| run_op(op, config)).collect();
    let mut failed = false;
    for OpRow { op: name, ns_per_op: base_ns, allocs_per_op: base_allocs, .. } in baseline {
        let Some(f) = fresh.iter().find(|r| r.op == *name) else {
            eprintln!("gate FAIL: op '{name}' no longer measured");
            failed = true;
            continue;
        };
        if f.allocs_per_op > base_allocs + ALLOC_SLACK {
            eprintln!(
                "gate FAIL: {name} allocs/op {:.4} > baseline {base_allocs:.4} + {ALLOC_SLACK}",
                f.allocs_per_op
            );
            failed = true;
        }
        if f.ns_per_op > base_ns * (1.0 + NS_ADVISORY) {
            println!(
                "gate ADVISORY: {name} ns/op {:.1} > baseline {base_ns:.1} * {:.2}",
                f.ns_per_op,
                1.0 + NS_ADVISORY
            );
        }
    }
    // Launch-allocation gate: COW shadows hold allocs/launch flat, so a
    // rise past the slack means the launch path started deep-copying
    // buffers again. Entries predating the section are skipped.
    for &threads in &LAUNCH_THREADS {
        let fresh = run_launches(threads);
        let Some(&(_, _, _, base)) = entry.launches.iter().find(|l| l.0 == fresh.family) else {
            continue;
        };
        if fresh.allocs_per_launch > base + ALLOC_SLACK {
            eprintln!(
                "gate FAIL: {} allocs/launch {:.4} > baseline {base:.4} + {ALLOC_SLACK}",
                fresh.family, fresh.allocs_per_launch
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("gate OK: every op and launch family within allocs +{ALLOC_SLACK}");
    std::process::exit(0);
}

/// The device an op runs on: the Tesla C1060, except the rows that time
/// the bank model on the 32-bank, warp-grouped M2050, the argmax tree
/// the data-parallel rows run there, and the global loads that go
/// through its L1.
fn device_for(op: &str) -> DeviceSpec {
    match op {
        "shared_reduce" | "shared_argmax_tree" | "shared_conflict" | "dp_tour_tile"
        | "global_ld_strided" | "roulette_scan" | "global_ld_gather" | "acs_tour_step" => {
            DeviceSpec::tesla_m2050()
        }
        _ => DeviceSpec::tesla_c1060(),
    }
}

/// Cities of the `dp_tour_tile` instance: one 128-lane tile per step.
const DP_CITIES: u32 = 100;

/// The `dp_tour_tile` launch: a row-8 kernel over `ceil(reps / 99)` ants
/// on a fresh n = 100 colony whose choice table is filled, and its ops
/// per launch (construction steps over all ants).
fn dp_tour_kernel(
    dev: &DeviceSpec,
    gm: &mut GlobalMem,
    reps: u32,
) -> (DataParallelTourKernel, u64) {
    let steps = DP_CITIES - 1;
    let ants = reps.div_ceil(steps);
    let inst = aco_tsp::uniform_random("interp-bench", DP_CITIES as usize, 1000.0, 1);
    let bufs = ColonyBuffers::allocate(gm, &inst, &AcoParams::default().nn(10).ants(ants as usize));
    let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
    launch(dev, &ck.config(), &ck, gm, SimMode::Full).unwrap();
    (DataParallelTourKernel::new(bufs, true, 7, 0), ants as u64 * steps as u64)
}

/// The `task_prob_step` launch: a row-3 kernel over 8 ants on a fresh
/// n = 100 colony whose choice table is filled, its colony (the visited
/// flags are cleared before every launch) and its ops per launch (its
/// construction steps).
fn task_tour_kernel(dev: &DeviceSpec, gm: &mut GlobalMem) -> (TaskTourKernel, ColonyBuffers, u64) {
    let inst = aco_tsp::uniform_random("interp-bench", DP_CITIES as usize, 1000.0, 1);
    let bufs = ColonyBuffers::allocate(gm, &inst, &AcoParams::default().nn(10).ants(8));
    let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
    launch(dev, &ck.config(), &ck, gm, SimMode::Full).unwrap();
    let opts = TourStrategy::DeviceRng.task_opts().expect("a task-parallel row");
    let k = TaskTourKernel { bufs, opts, alpha: 1.0, beta: 2.0, seed: 7, iteration: 0 };
    (k, bufs, DP_CITIES as u64 - 1)
}

/// Cities of the `acs_tour_step` instance.
const ACS_CITIES: u32 = 48;

/// The `acs_tour_step` launch: an ACS tour kernel over 8 ants on a fresh
/// n = 48 colony whose choice table holds `eta^beta`, its colony and its
/// ops per launch (its construction steps).
fn acs_tour_kernel(dev: &DeviceSpec, gm: &mut GlobalMem) -> (AcsTourKernel, ColonyBuffers, u64) {
    let inst = aco_tsp::uniform_random("interp-bench", ACS_CITIES as usize, 1000.0, 1);
    let bufs = ColonyBuffers::allocate(gm, &inst, &AcoParams::default().nn(10).ants(8));
    let ck = ChoiceKernel { bufs, alpha: 0.0, beta: 2.0 };
    launch(dev, &ck.config(), &ck, gm, SimMode::Full).unwrap();
    let tau0 = gm.f32(bufs.tau)[0];
    let k = AcsTourKernel { bufs, q0: 0.9, xi: 0.1, tau0, seed: 7, iteration: 0 };
    (k, bufs, ACS_CITIES as u64 - 1)
}

/// Time `op` over `config.trials` trials of 8 launches each; ns/op is
/// the fastest trial, beside the median trial, and allocs/op the mean
/// over every trial.
fn run_op(op: &'static str, config: Config) -> OpRow {
    let dev = device_for(op);
    let mut gm = GlobalMem::new();
    let mut colony = None;
    let (k, cfg, ops_per_launch): (Box<dyn Kernel>, LaunchConfig, u64) = if op == "dp_tour_tile" {
        let (k, ops) = dp_tour_kernel(&dev, &mut gm, config.reps);
        let cfg = k.config();
        (Box::new(k), cfg, ops)
    } else if op == "task_prob_step" {
        let (k, bufs, ops) = task_tour_kernel(&dev, &mut gm);
        colony = Some(bufs);
        let cfg = k.config(&dev);
        (Box::new(k), cfg, ops)
    } else if op == "acs_tour_step" {
        let (k, bufs, ops) = acs_tour_kernel(&dev, &mut gm);
        colony = Some(bufs);
        let cfg = k.config();
        (Box::new(k), cfg, ops)
    } else if op == "tex_ld_gather" || op == "global_ld_gather" {
        // A 100 x 100 distance matrix.
        let buf_f = gm.alloc_f32(100 * 100);
        let buf_u = gm.alloc_u32(1);
        let k = OpKernel { op, reps: config.reps, buf_f, buf_u };
        (Box::new(k), LaunchConfig::new(1, 128), config.reps as u64)
    } else if op == "global_ld_strided" || op == "roulette_scan" {
        // Eight 100-word rows (of ones, which the scan sums).
        let buf_f = gm.alloc_f32(800);
        gm.write_f32(buf_f, &[1.0; 800]);
        let buf_u = gm.alloc_u32(1);
        let k = OpKernel { op, reps: config.reps, buf_f, buf_u };
        (Box::new(k), LaunchConfig::new(1, 128), config.reps as u64)
    } else {
        let buf_f = gm.alloc_f32(256);
        let buf_u = gm.alloc_u32(256);
        let k = OpKernel { op, reps: config.reps, buf_f, buf_u };
        // Room for the argmax tree's two 256-word arrays.
        let cfg = LaunchConfig::new(1, 256).shared(8 * 256);
        (Box::new(k), cfg, config.reps as u64)
    };
    let k = k.as_ref();
    let launch_once = |gm: &mut GlobalMem| {
        if let Some(bufs) = colony {
            bufs.clear_visited(gm);
        }
        launch(&dev, &cfg, k, gm, SimMode::Full).unwrap();
    };
    // Warm-up launch: fills the thread-local pools and caches.
    launch_once(&mut gm);

    let rounds = 8u32;
    let trials = config.trials.max(1);
    let ops_per_trial = ops_per_launch * rounds as u64;
    let mut ns = Vec::with_capacity(trials as usize);
    let before_allocs = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..trials {
        let t0 = Instant::now();
        for _ in 0..rounds {
            launch_once(&mut gm);
        }
        ns.push(t0.elapsed().as_nanos() as f64 / ops_per_trial as f64);
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before_allocs;
    OpRow {
        op: op.to_string(),
        ns_per_op: ns.iter().copied().fold(f64::INFINITY, f64::min),
        ns_median: Some(median(&mut ns)),
        allocs_per_op: allocs as f64 / (ops_per_trial * trials as u64) as f64,
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// One history entry, as read back or freshly measured. The config (both
/// `reps` and `trials`), `host_cpus` and the git `rev` are `None` on an
/// entry that does not record them and are then left out of the rendering.
struct Entry {
    label: String,
    block: u32,
    config: Option<Config>,
    host_cpus: Option<u32>,
    rev: Option<String>,
    ops: Vec<OpRow>,
    launches: Vec<(String, u64, u64, f64)>,
}

impl Entry {
    fn parse(e: &Json) -> Entry {
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::str).unwrap_or("?").to_string();
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::num);
        let list = |k: &str| e.get(k).and_then(Json::arr).unwrap_or(&[]);
        Entry {
            label: text(e, "label"),
            block: num(e, "block").unwrap_or(256.0) as u32,
            config: num(e, "reps")
                .zip(num(e, "trials"))
                .map(|(reps, trials)| Config { reps: reps as u32, trials: trials as u32 }),
            host_cpus: num(e, "host_cpus").map(|c| c as u32),
            rev: e.get("rev").and_then(Json::str).map(str::to_string),
            ops: list("ops")
                .iter()
                .map(|o| OpRow {
                    op: text(o, "op"),
                    ns_per_op: num(o, "ns_per_op").unwrap_or(0.0),
                    ns_median: num(o, "ns_median"),
                    allocs_per_op: num(o, "allocs_per_op").unwrap_or(0.0),
                })
                .collect(),
            launches: list("launches")
                .iter()
                .map(|l| {
                    let n = |k| num(l, k).unwrap_or(0.0);
                    (
                        text(l, "family"),
                        n("threads") as u64,
                        n("launches") as u64,
                        n("allocs_per_launch"),
                    )
                })
                .collect(),
        }
    }

    fn render(&self) -> String {
        let mut head =
            format!("      \"label\": \"{}\",\n      \"block\": {}", self.label, self.block);
        if let Some(c) = self.config {
            head += &format!(",\n      \"reps\": {},\n      \"trials\": {}", c.reps, c.trials);
        }
        if let Some(cpus) = self.host_cpus {
            head += &format!(",\n      \"host_cpus\": {cpus}");
        }
        if let Some(rev) = &self.rev {
            head += &format!(",\n      \"rev\": \"{rev}\"");
        }
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|o| {
                let median =
                    o.ns_median.map(|m| format!(", \"ns_median\": {m:.1}")).unwrap_or_default();
                format!(
                    "      {{\"op\": \"{}\", \"ns_per_op\": {:.1}{median}, \
                     \"allocs_per_op\": {:.4}}}",
                    o.op, o.ns_per_op, o.allocs_per_op
                )
            })
            .collect();
        let mut body = format!("{head},\n      \"ops\": [\n{}\n      ]", ops.join(",\n"));
        // The oldest entries have no launch section.
        if !self.launches.is_empty() {
            let rows: Vec<String> = self
                .launches
                .iter()
                .map(|(family, threads, launches, allocs)| {
                    format!(
                        "      {{\"family\": \"{family}\", \"threads\": {threads}, \
                         \"launches\": {launches}, \"allocs_per_launch\": {allocs:.4}}}"
                    )
                })
                .collect();
            body += &format!(",\n      \"launches\": [\n{}\n      ]", rows.join(",\n"));
        }
        format!("    {{\n{body}\n    }}")
    }
}

/// `git rev-parse --short HEAD` of the working directory, or `"unknown"`
/// when git or the repository is unavailable.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let mut label = String::from("dev");
    let mut append = false;
    let mut reps: Option<u32> = None;
    let mut out = std::path::PathBuf::from("BENCH_interp.json");
    let mut check_path: Option<std::path::PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => label = it.next().expect("--label S"),
            "--append" => append = true,
            "--reps" => reps = Some(it.next().expect("--reps R").parse().expect("--reps R")),
            "--out" => out = it.next().expect("--out FILE").into(),
            "--check" => check_path = Some(it.next().expect("--check FILE").into()),
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &check_path {
        check(path, reps);
    }
    let config = Config { reps: reps.unwrap_or(DEFAULT_REPS), trials: TRIALS };

    let ops: Vec<OpRow> = OPS.iter().map(|&op| run_op(op, config)).collect();
    println!(
        "reps {} x trials {} (ns/op: fastest trial; median: middle trial)",
        config.reps, config.trials
    );
    println!("{:<18} {:>10} {:>10} {:>12}", "op", "ns/op", "median", "allocs/op");
    for r in &ops {
        let median = r.ns_median.expect("a fresh run records its median");
        println!("{:<18} {:>10.1} {median:>10.1} {:>12.4}", r.op, r.ns_per_op, r.allocs_per_op);
    }
    let launches: Vec<LaunchAllocResult> =
        LAUNCH_THREADS.iter().map(|&t| run_launches(t)).collect();
    println!("{:<18} {:>10} {:>15}", "family", "launches", "allocs/launch");
    for l in &launches {
        println!("{:<18} {:>10} {:>15.4}", l.family, l.launches, l.allocs_per_launch);
    }

    // Keep prior history entries (drop any with the same label).
    let mut entries: Vec<Entry> = Vec::new();
    if append {
        if let Some(doc) = std::fs::read_to_string(&out).ok().and_then(|t| Json::parse(&t).ok()) {
            let hist = doc.get("history").and_then(Json::arr).unwrap_or(&[]);
            entries.extend(hist.iter().map(Entry::parse).filter(|e| e.label != label));
        }
    }
    entries.push(Entry {
        label,
        block: 256,
        config: Some(config),
        host_cpus: std::thread::available_parallelism().ok().map(|n| n.get() as u32),
        rev: Some(git_rev()),
        ops,
        launches: launches
            .iter()
            .map(|l| (l.family.clone(), l.threads as u64, l.launches, l.allocs_per_launch))
            .collect(),
    });

    let rendered: Vec<String> = entries.iter().map(Entry::render).collect();
    let json = format!(
        "{{\n  \"bench\": \"blockctx_ops\",\n  \"history\": [\n{}\n  ]\n}}\n",
        rendered.join(",\n")
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("-> {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

//! Kernel launches.
//!
//! A launch assigns blocks to SMs round-robin (`sm = block % sm_count`),
//! executes each block in lockstep through a [`BlockCtx`], and turns the
//! accumulated [`KernelStats`] into a [`KernelTime`].
//!
//! **Execution order and parallelism.** Blocks are executed *SM-group
//! major*: all of SM 0's blocks in block order, then SM 1's, and so on.
//! Groups are independent — each owns its per-SM caches and its slice of
//! the stats — so [`launch_threads`] can run them on a host thread pool.
//!
//! **COW shadows and the commit-order contract.** Parallel groups
//! execute against *copy-on-write shadows* of global memory: a fork
//! clones only the buffer handles (`Arc` bumps), a buffer's data is
//! duplicated the first time the shadow stores into it, and every
//! mutation is logged. After all groups join, the launch commits the
//! logs onto the real arena **in canonical group order** — ascending SM
//! id, blocks in block order within a group — with plain stores replayed
//! as overwrites and atomic adds re-applied as adds. That order is
//! exactly the serial execution order, so counters and global-memory
//! contents are **bit identical for every host thread count**, including
//! the serial path (which skips shadows entirely) — pinned by the
//! cross-crate `parallel_launch` tests. Allocations per launch scale
//! with the buffers each group actually dirties, not with the arena
//! size (tracked as `allocs/launch` in `BENCH_interp.json`).
//!
//! The model's one execution-model rule (true of real CUDA, too): a
//! block must not read global memory that another block of the *same
//! launch* writes non-atomically, and must not read back atomic
//! accumulators it updates in that launch. Every kernel in this
//! reproduction satisfies this (tours, tabus and lengths are per-ant;
//! deposits are atomic adds committed at launch end).
//!
//! Large grids can be *block-sampled*: a deterministic, evenly spaced
//! subset of blocks executes and the counters are scaled by the inverse
//! sampling fraction. This is the standard architecture-simulation
//! technique for workloads whose blocks are statistically homogeneous —
//! which every kernel in this reproduction is (all ants do the same work
//! in expectation). Functional output is then partial; sampled launches
//! are for timing studies, and the integration tests cross-validate
//! sampled against full counters on small instances.

use crate::block::{BlockCtx, MAX_SHARED_BANKS};
use crate::cache::Cache;
use crate::device::DeviceSpec;
use crate::global::GlobalMem;
use crate::occupancy::{occupancy, Occupancy};
use crate::stats::KernelStats;
use crate::timing::{estimate, KernelTime};
use crate::SimtError;

/// Grid/block shape plus declared per-kernel resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Declared registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Declared shared memory per block in bytes (occupancy input and the
    /// block's allocation budget).
    pub shared_bytes: u32,
}

impl LaunchConfig {
    /// A simple config with default resource estimates (16 regs, no shared).
    pub fn new(grid: u32, block: u32) -> Self {
        LaunchConfig { grid, block, regs_per_thread: 16, shared_bytes: 0 }
    }

    /// Builder: declared register usage.
    pub fn regs(mut self, r: u32) -> Self {
        self.regs_per_thread = r;
        self
    }

    /// Builder: declared shared-memory usage.
    pub fn shared(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }
}

/// Execution fidelity of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Execute every block (full functional + timing fidelity).
    Full,
    /// Execute at most this many evenly spaced blocks and extrapolate the
    /// counters (timing fidelity; partial functional output).
    SampleBlocks(u32),
}

/// A kernel: straight-line SPMD code over one block.
///
/// `Sync` because [`launch_threads`] shares the kernel across the host
/// threads executing its SM groups (kernels are plain parameter structs).
pub trait Kernel: Sync {
    /// Kernel name (reports and errors).
    fn name(&self) -> &'static str;
    /// Execute one block.
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem);
}

/// Everything a launch produces.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    /// Extrapolated event counters.
    pub stats: KernelStats,
    /// Occupancy of the configuration.
    pub occupancy: Occupancy,
    /// Modeled execution time.
    pub time: KernelTime,
    /// Blocks actually executed.
    pub executed_blocks: u32,
    /// Counter extrapolation factor (`grid / executed`).
    pub scale: f64,
}

/// Validate a launch configuration against the device limits.
pub fn validate(dev: &DeviceSpec, cfg: &LaunchConfig) -> Result<(), SimtError> {
    if dev.sm_count == 0 {
        return Err(SimtError::BadLaunch(format!("{} has no SMs", dev.name)));
    }
    if dev.shared_banks == 0 || dev.shared_banks > MAX_SHARED_BANKS {
        return Err(SimtError::BadLaunch(format!(
            "{} shared banks on {} outside the modeled 1..={MAX_SHARED_BANKS}",
            dev.shared_banks, dev.name
        )));
    }
    if cfg.grid == 0 {
        return Err(SimtError::BadLaunch("grid must have at least one block".into()));
    }
    if cfg.block == 0 || cfg.block > dev.max_threads_per_block {
        return Err(SimtError::BadLaunch(format!(
            "block size {} outside 1..={} for {}",
            cfg.block, dev.max_threads_per_block, dev.name
        )));
    }
    if cfg.shared_bytes > dev.shared_mem_per_sm {
        return Err(SimtError::BadLaunch(format!(
            "shared memory {} B exceeds {} B per block on {}",
            cfg.shared_bytes, dev.shared_mem_per_sm, dev.name
        )));
    }
    if cfg.regs_per_thread * cfg.block > dev.registers_per_sm {
        return Err(SimtError::BadLaunch(format!(
            "register demand {}x{} exceeds the {}-register file on {}",
            cfg.regs_per_thread, cfg.block, dev.registers_per_sm, dev.name
        )));
    }
    Ok(())
}

/// Launch `kernel` on `dev` over `gm`, serially (one host thread).
pub fn launch(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &dyn Kernel,
    gm: &mut GlobalMem,
    mode: SimMode,
) -> Result<LaunchResult, SimtError> {
    launch_threads(dev, cfg, kernel, gm, mode, 1)
}

/// Execute one SM group: all of one SM's blocks, in block order, against
/// its own caches, accumulating into a fresh per-group stats record.
fn run_group(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &dyn Kernel,
    sm: usize,
    blocks: &[u32],
    gm: &mut GlobalMem,
) -> KernelStats {
    let mut stats = KernelStats::for_sms(dev.sm_count as usize);
    let mut tex = Cache::new(dev.tex_cache_bytes as u64, 32, 8);
    let mut l1 = Cache::new(if dev.has_l1 { dev.l1_bytes as u64 } else { 0 }, 128, 8);
    for &b in blocks {
        let mut ctx = BlockCtx::new(
            dev,
            b,
            cfg.grid,
            cfg.block,
            sm,
            cfg.shared_bytes,
            &mut stats,
            &mut tex,
            &mut l1,
        );
        kernel.run_block(&mut ctx, gm);
    }
    stats
}

/// Launch `kernel` on `dev` over `gm`, executing SM groups across up to
/// `threads` host threads. Results — counters *and* global memory — are
/// bit-identical to [`launch`] for every `threads` value (see the module
/// docs for how).
pub fn launch_threads(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    kernel: &dyn Kernel,
    gm: &mut GlobalMem,
    mode: SimMode,
    threads: usize,
) -> Result<LaunchResult, SimtError> {
    // Fault-injection hook (the failure-path twin of the observability
    // hook at the bottom of this function): a fault armed on this thread
    // is consumed by its next launch, before any block executes, so a
    // failed launch leaves memory and counters untouched.
    if let Some(fault) = aco_faults::launch::take() {
        match fault {
            aco_faults::launch::LaunchFault::Panic(msg) => panic!("{msg}"),
            aco_faults::launch::LaunchFault::Transient(msg) => {
                return Err(SimtError::DeviceFault(msg))
            }
        }
    }
    validate(dev, cfg)?;

    let occ = occupancy(dev, cfg.block, cfg.regs_per_thread, cfg.shared_bytes, cfg.grid);

    // Which blocks execute?
    let blocks: Vec<u32> = match mode {
        SimMode::Full => (0..cfg.grid).collect(),
        SimMode::SampleBlocks(k) => {
            let k = k.clamp(1, cfg.grid);
            // Evenly spaced, deterministic sample covering the grid.
            (0..k).map(|i| (i as u64 * cfg.grid as u64 / k as u64) as u32).collect()
        }
    };
    let executed = blocks.len() as u32;
    let scale = cfg.grid as f64 / executed as f64;

    // Group blocks by SM, ascending SM id — the canonical execution and
    // commit order.
    let mut by_sm: Vec<Vec<u32>> = vec![Vec::new(); dev.sm_count as usize];
    for &b in &blocks {
        by_sm[(b % dev.sm_count) as usize].push(b);
    }
    let groups: Vec<(usize, Vec<u32>)> =
        by_sm.into_iter().enumerate().filter(|(_, blks)| !blks.is_empty()).collect();

    let mut stats = KernelStats::for_sms(dev.sm_count as usize);
    if threads <= 1 || groups.len() <= 1 {
        // Serial: run directly against the real arena, group-major.
        for (sm, blks) in &groups {
            let s = run_group(dev, cfg, kernel, *sm, blks, gm);
            stats.merge(&s);
        }
    } else {
        // Parallel: each group runs on a logging shadow of the arena;
        // stats merge and logs commit in SM order afterwards.
        let workers = threads.min(groups.len());
        let chunk = groups.len().div_ceil(workers);
        let base: &GlobalMem = gm;
        let mut results: Vec<Vec<(KernelStats, Vec<crate::global::LogOp>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .chunks(chunk)
                    .map(|gs| {
                        scope.spawn(move || {
                            gs.iter()
                                .map(|(sm, blks)| {
                                    let mut shadow = base.fork_shadow();
                                    let s = run_group(dev, cfg, kernel, *sm, blks, &mut shadow);
                                    (s, shadow.take_log())
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("launch worker panicked")).collect()
            });
        for (s, log) in results.iter_mut().flatten() {
            stats.merge(s);
            gm.replay(log);
        }
    }

    if scale != 1.0 {
        stats.scale(scale);
        // Sampled blocks land on a handful of simulated SMs; after
        // extrapolation the per-SM maximum would be distorted by sampling
        // collisions. Blocks of one launch are homogeneous (the sampling
        // premise), so redistribute the scaled issue cycles evenly over
        // the SMs the full grid would occupy.
        let busy = occ.busy_sms.max(1) as usize;
        let total: f64 = stats.issue_cycles_per_sm.iter().sum();
        stats.issue_cycles_per_sm.fill(0.0);
        for c in stats.issue_cycles_per_sm.iter_mut().take(busy) {
            *c = total / busy as f64;
        }
    }
    let time = estimate(dev, &occ, &stats);
    // Observability hook: report this launch's family and modeled time
    // to whatever sink the calling thread has installed (a no-op
    // thread-local read otherwise — see `aco_obs::kernel`). Runs after
    // the parallel groups joined, on the launching thread, so it is
    // deterministic and free of synchronisation.
    aco_obs::kernel::record(kernel.name(), time.total_ms);
    Ok(LaunchResult { stats, occupancy: occ, time, executed_blocks: executed, scale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::DevicePtr;

    /// y[i] = a * x[i] + y[i] over `n` elements.
    struct Saxpy {
        a: f32,
        x: DevicePtr<f32>,
        y: DevicePtr<f32>,
        n: u32,
    }

    impl Kernel for Saxpy {
        fn name(&self) -> &'static str {
            "saxpy"
        }
        fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
            let i = ctx.global_thread_idx();
            let n = ctx.splat_u32(self.n);
            let in_range = ctx.ult(&i, &n);
            ctx.if_then(gm, &in_range.clone(), |ctx, gm| {
                let x = ctx.ld_global_f32(gm, self.x, &i);
                let y = ctx.ld_global_f32(gm, self.y, &i);
                let a = ctx.splat_f32(self.a);
                let r = ctx.fma(&a, &x, &y);
                ctx.st_global_f32(gm, self.y, &i, &r);
            });
        }
    }

    fn setup(n: usize) -> (GlobalMem, DevicePtr<f32>, DevicePtr<f32>) {
        let mut gm = GlobalMem::new();
        let x = gm.alloc_f32(n);
        let y = gm.alloc_f32(n);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        gm.write_f32(x, &xs);
        gm.write_f32(y, &ys);
        (gm, x, y)
    }

    #[test]
    fn saxpy_computes_and_counts() {
        let dev = DeviceSpec::tesla_c1060();
        let n = 1000;
        let (mut gm, x, y) = setup(n);
        let k = Saxpy { a: 3.0, x, y, n: n as u32 };
        let cfg = LaunchConfig::new((n as u32).div_ceil(128), 128);
        let r = launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        for i in 0..n {
            assert_eq!(gm.f32(y)[i], 3.0 * i as f32 + 2.0 * i as f32);
        }
        assert_eq!(r.executed_blocks, 8);
        assert_eq!(r.scale, 1.0);
        assert!(r.stats.ld_transactions > 0.0);
        assert!(r.stats.dram_bytes >= (2 * 4 * n) as f64); // >= useful bytes
        assert!(r.time.total_ms > 0.0);
    }

    #[test]
    fn coalesced_saxpy_moves_close_to_useful_bytes() {
        let dev = DeviceSpec::tesla_c1060();
        let n = 4096;
        let (mut gm, x, y) = setup(n);
        let k = Saxpy { a: 1.0, x, y, n: n as u32 };
        let cfg = LaunchConfig::new((n as u32).div_ceil(256), 256);
        let r = launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        let useful = (3 * 4 * n) as f64; // 2 loads + 1 store per element
        assert!(
            r.stats.dram_bytes <= useful * 1.1,
            "coalesced kernel should not amplify traffic: {} vs {}",
            r.stats.dram_bytes,
            useful
        );
    }

    #[test]
    fn sampling_extrapolates_counters() {
        let dev = DeviceSpec::tesla_c1060();
        let n = 128 * 64; // 64 blocks of 128
        let (mut gm, x, y) = setup(n);
        let k = Saxpy { a: 2.0, x, y, n: n as u32 };
        let cfg = LaunchConfig::new(64, 128);

        let full = launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        let (mut gm2, x2, y2) = setup(n);
        let k2 = Saxpy { a: 2.0, x: x2, y: y2, n: n as u32 };
        let sampled = launch(&dev, &cfg, &k2, &mut gm2, SimMode::SampleBlocks(8)).unwrap();

        assert_eq!(sampled.executed_blocks, 8);
        assert_eq!(sampled.scale, 8.0);
        let rel = (sampled.stats.dram_bytes - full.stats.dram_bytes).abs() / full.stats.dram_bytes;
        assert!(rel < 0.05, "sampled dram bytes off by {rel}");
        let relt = (sampled.time.total_ms - full.time.total_ms).abs() / full.time.total_ms;
        assert!(relt < 0.10, "sampled time off by {relt}");
    }

    #[test]
    fn fermi_l1_reduces_repeat_traffic() {
        // Two saxpy launches over the same small array: on Fermi the
        // second pass inside one launch isn't modeled, but within a launch
        // repeated loads of the same lines (grid bigger than data) hit L1.
        struct RepeatLoad {
            x: DevicePtr<f32>,
        }
        impl Kernel for RepeatLoad {
            fn name(&self) -> &'static str {
                "repeat"
            }
            fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
                let t = ctx.thread_idx();
                // Every block reads the same 128 words.
                for _ in 0..4 {
                    let _ = ctx.ld_global_f32(gm, self.x, &t);
                }
            }
        }
        let mut gm = GlobalMem::new();
        let x = gm.alloc_f32(128);
        let k = RepeatLoad { x };
        let cfg = LaunchConfig::new(14, 128); // one block per SM
        let fermi = DeviceSpec::tesla_m2050();
        let r = launch(&fermi, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        assert!(r.stats.l1_hits > 0.0);
        // 4 loads x 4 lines x 14 blocks = 224 line accesses, 4 lines
        // missed per SM -> 56 misses.
        assert_eq!(r.stats.l1_misses, 56.0);
        let c1060 = DeviceSpec::tesla_c1060();
        let r2 = launch(&c1060, &cfg, &k, &mut gm, SimMode::Full).unwrap();
        assert!(r2.stats.dram_bytes > r.stats.dram_bytes, "GT200 has no L1");
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        let dev = DeviceSpec::tesla_c1060();
        let n = 4096;
        let cfg = LaunchConfig::new((n as u32).div_ceil(128), 128);
        let (mut gm_s, xs, ys) = setup(n);
        let ks = Saxpy { a: 2.5, x: xs, y: ys, n: n as u32 };
        let rs = launch(&dev, &cfg, &ks, &mut gm_s, SimMode::Full).unwrap();
        for threads in [2, 3, 8, 64] {
            let (mut gm_p, xp, yp) = setup(n);
            let kp = Saxpy { a: 2.5, x: xp, y: yp, n: n as u32 };
            let rp = launch_threads(&dev, &cfg, &kp, &mut gm_p, SimMode::Full, threads).unwrap();
            assert_eq!(rs.stats, rp.stats, "stats must not depend on host threads");
            assert_eq!(gm_s.f32(ys), gm_p.f32(yp), "memory must not depend on host threads");
            assert_eq!(rs.time.total_ms.to_bits(), rp.time.total_ms.to_bits());
        }
    }

    /// All blocks atomically accumulate into one cell: the commit order
    /// of the adds (and therefore the exact f32 sum) must match serial
    /// execution for every thread count.
    struct AtomicAccum {
        acc: DevicePtr<f32>,
    }
    impl Kernel for AtomicAccum {
        fn name(&self) -> &'static str {
            "accum"
        }
        fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
            let zero = ctx.splat_u32(0);
            // A block-dependent, non-dyadic value so float addition order
            // is observable in the result bits.
            let v = ctx.splat_f32(0.1 + ctx.block_idx as f32 * 0.001);
            ctx.atomic_add_f32(gm, self.acc, &zero, &v);
        }
    }

    #[test]
    fn atomic_commit_order_matches_serial_exactly() {
        let dev = DeviceSpec::tesla_m2050();
        let cfg = LaunchConfig::new(97, 32);
        let mut gm_s = GlobalMem::new();
        let acc_s = gm_s.alloc_f32(1);
        launch(&dev, &cfg, &AtomicAccum { acc: acc_s }, &mut gm_s, SimMode::Full).unwrap();
        for threads in [2, 5, 16] {
            let mut gm_p = GlobalMem::new();
            let acc_p = gm_p.alloc_f32(1);
            launch_threads(
                &dev,
                &cfg,
                &AtomicAccum { acc: acc_p },
                &mut gm_p,
                SimMode::Full,
                threads,
            )
            .unwrap();
            assert_eq!(
                gm_s.f32(acc_s)[0].to_bits(),
                gm_p.f32(acc_p)[0].to_bits(),
                "atomic sum bits must match serial at {threads} threads"
            );
        }
    }

    #[test]
    fn launch_validation() {
        let dev = DeviceSpec::tesla_c1060();
        let mut gm = GlobalMem::new();
        let x = gm.alloc_f32(16);
        let y = gm.alloc_f32(16);
        let k = Saxpy { a: 1.0, x, y, n: 16 };
        assert!(launch(&dev, &LaunchConfig::new(0, 128), &k, &mut gm, SimMode::Full).is_err());
        assert!(launch(&dev, &LaunchConfig::new(1, 1024), &k, &mut gm, SimMode::Full).is_err());
        assert!(launch(
            &dev,
            &LaunchConfig::new(1, 128).shared(64 * 1024),
            &k,
            &mut gm,
            SimMode::Full
        )
        .is_err());
    }

    fn refused(dev: &DeviceSpec) -> bool {
        let mut gm = GlobalMem::new();
        let x = gm.alloc_f32(16);
        let k = Saxpy { a: 1.0, x, y: x, n: 16 };
        let r = launch(dev, &LaunchConfig::new(1, 32), &k, &mut gm, SimMode::Full);
        matches!(r, Err(SimtError::BadLaunch(_)))
    }

    #[test]
    fn device_without_sms_is_refused() {
        let dev = DeviceSpec { sm_count: 0, ..DeviceSpec::tesla_c1060() };
        assert!(refused(&dev));
    }

    #[test]
    fn device_without_shared_banks_is_refused() {
        let dev = DeviceSpec { shared_banks: 0, ..DeviceSpec::tesla_m2050() };
        assert!(refused(&dev));
    }

    #[test]
    fn device_with_more_banks_than_the_model_is_refused() {
        let dev = DeviceSpec { shared_banks: MAX_SHARED_BANKS + 1, ..DeviceSpec::tesla_m2050() };
        assert!(refused(&dev));
        let widest = DeviceSpec { shared_banks: MAX_SHARED_BANKS, ..DeviceSpec::tesla_m2050() };
        assert!(!refused(&widest));
    }
}

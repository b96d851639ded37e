//! Experiment implementations — one function per table / figure.
//!
//! Every function returns a [`TableData`] whose measured cells come from
//! the SIMT simulator (GPU side) or the operation-counting CPU model
//! (sequential side), aligned with the paper's published values where the
//! paper prints them.
//!
//! Large launches are *block-sampled* (deterministic, evenly spaced
//! blocks, extrapolated counters — see `aco_simt::launch`); the sampling
//! thresholds live in [`sim_mode_for_size`] and are validated by the
//! cross-checking integration tests at small sizes.

use std::sync::Mutex;

use aco_core::cpu::ant_system::model as cpu_model;
use aco_core::cpu::{AntSystem, CpuModel, OpCounter, TourPolicy, TourScratch};
use aco_core::gpu::{
    run_pheromone, run_tour, sim_mode_for_size, ColonyBuffers, PheromoneStrategy, TourStrategy,
};
use aco_core::params::AcoParams;
use aco_core::quality::{cpu_quality, gpu_quality};
use aco_simt::rng::PmRng;
use aco_simt::{DeviceSpec, GlobalMem, SimMode};
use aco_tsp::{Tour, TspInstance};

use crate::paper;
use crate::table::TableData;

/// Fidelity policy for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModePolicy {
    /// Pick per instance size (full below 128 cities, sampled above).
    Auto,
    /// Force full-fidelity simulation everywhere (slow on pr1002+).
    Full,
    /// Force a fixed block-sample count.
    Sample(u32),
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Skip paper instances with more cities than this.
    pub max_n: usize,
    /// Fidelity policy.
    pub mode: ModePolicy,
    /// Worker threads for independent cells.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_n: 2392, mode: ModePolicy::Auto, threads: 4 }
    }
}

/// The simulation mode a policy picks for an instance size;
/// [`ModePolicy::Auto`] is [`sim_mode_for_size`].
pub fn sim_mode_for(policy: ModePolicy, n: usize) -> SimMode {
    match policy {
        ModePolicy::Full => SimMode::Full,
        ModePolicy::Sample(k) => SimMode::SampleBlocks(k),
        ModePolicy::Auto => sim_mode_for_size(n),
    }
}

/// ACO parameters the paper's evaluation uses: `m = n`, `NN = 30`,
/// `alpha = 1`, `beta = 2`, `rho = 0.5`.
pub fn paper_params() -> AcoParams {
    AcoParams::default().nn(30).seed(0x2011)
}

fn instances_upto(max_n: usize) -> Vec<TspInstance> {
    aco_tsp::paper_instances().into_iter().filter(|i| i.n() <= max_n).collect()
}

/// One deferred table cell: returns `(row, col, value)` when run.
type CellJob<'a> = Box<dyn FnOnce() -> (usize, usize, f64) + Send + 'a>;

/// Run `jobs` across worker threads. Jobs may borrow from the caller
/// (scoped threads).
fn parallel_cells<'a>(jobs: Vec<CellJob<'a>>, threads: usize) -> Vec<(usize, usize, f64)> {
    let threads = threads.max(1);
    let jobs = Mutex::new(jobs);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = { jobs.lock().expect("queue lock").pop() };
                match job {
                    Some(j) => {
                        let cell = j();
                        out.lock().expect("result lock").push(cell);
                    }
                    None => break,
                }
            });
        }
    });
    out.into_inner().expect("threads joined")
}

/// Table I: the device models (no measurement — printed for completeness
/// and pinned against the paper by `aco_simt::device` unit tests).
pub fn table1() -> String {
    let mut out = String::from("Table I: CUDA and hardware features (device models)\n");
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        out.push_str(&format!(
            "  {}: {} SMs x {} cores @ {} MHz, {} max threads/block, {} threads/SM, \
             {} KB shared/SM, {}K registers/SM, {} GB/s, float atomics: {}\n",
            dev.name,
            dev.sm_count,
            dev.cores_per_sm,
            dev.clock_mhz,
            dev.max_threads_per_block,
            dev.max_threads_per_sm,
            dev.shared_mem_per_sm / 1024,
            dev.registers_per_sm / 1024,
            dev.mem_bandwidth_gbps,
            if dev.native_float_atomics { "native" } else { "CAS-emulated" },
        ));
    }
    out
}

/// Table II: tour-construction times, all 8 strategies x paper instances.
pub fn table2(dev: &DeviceSpec, cfg: &RunConfig) -> TableData {
    let instances = instances_upto(cfg.max_n);
    let params = paper_params();

    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, strategy) in TourStrategy::ALL.into_iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let params = params.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                let run = run_tour(
                    &dev,
                    &mut gm,
                    bufs,
                    strategy,
                    params.alpha,
                    params.beta,
                    params.seed,
                    0,
                    mode,
                )
                .expect("paper-size launches are valid");
                (r, c, run.total_ms())
            }));
        }
    }

    let mut values = vec![vec![f64::NAN; instances.len()]; 8];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        values[r][c] = v;
    }
    // Append the "Total speed-up attained" row (v1 / v8), as in the paper.
    let speedup: Vec<f64> = (0..instances.len()).map(|c| values[0][c] / values[7][c]).collect();
    values.push(speedup);

    let ncols = instances.len();
    let mut paper_vals: Vec<Vec<f64>> =
        paper::TABLE2_MS.iter().map(|row| row[..ncols].to_vec()).collect();
    paper_vals.push(paper::TABLE2_SPEEDUP[..ncols].to_vec());

    let mut rows: Vec<String> = paper::TABLE2_ROWS.iter().map(|s| s.to_string()).collect();
    rows.push("Total speed-up attained".to_string());

    TableData {
        title: format!("Table II: tour construction, {} — measured (paper)", dev.name),
        unit: "ms per iteration".into(),
        rows,
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: Some(paper_vals),
    }
}

/// Shared implementation of Tables III (C1060) and IV (M2050): pheromone
/// update over host-built random tours (the update cost is
/// tour-content-insensitive; only edge positions matter).
fn table34(
    dev: &DeviceSpec,
    cfg: &RunConfig,
    paper_ms: &[[f64; 6]; 5],
    slowdown: &[f64; 6],
    title: &str,
) -> TableData {
    // The paper's pheromone tables stop at pr1002.
    let instances: Vec<TspInstance> =
        instances_upto(cfg.max_n.min(1002)).into_iter().take(6).collect();
    let params = paper_params();

    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, strategy) in PheromoneStrategy::ALL.into_iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let params = params.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                let n = inst.n();
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                // Host-built tours, one per ant, deterministic.
                let tours: Vec<Tour> = (0..params.ants_for(n))
                    .map(|a| {
                        let mut pm = PmRng::new(PmRng::thread_seed(77, a as u64));
                        let mut order: Vec<u32> = (0..n as u32).collect();
                        for i in (1..n).rev() {
                            let j = (pm.next_f64() * (i + 1) as f64) as usize;
                            order.swap(i, j);
                        }
                        Tour::new_unchecked(order)
                    })
                    .collect();
                bufs.upload_tours(&mut gm, &tours, inst.matrix());
                let run = run_pheromone(&dev, &mut gm, bufs, strategy, params.rho, mode)
                    .expect("paper-size launches are valid");
                (r, c, run.time.total_ms)
            }));
        }
    }

    let mut values = vec![vec![f64::NAN; instances.len()]; 5];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        values[r][c] = v;
    }
    let slow: Vec<f64> = (0..instances.len()).map(|c| values[4][c] / values[0][c]).collect();
    values.push(slow);

    let ncols = instances.len();
    let mut paper_vals: Vec<Vec<f64>> = paper_ms.iter().map(|row| row[..ncols].to_vec()).collect();
    paper_vals.push(slowdown[..ncols].to_vec());
    let mut rows: Vec<String> = paper::TABLE34_ROWS.iter().map(|s| s.to_string()).collect();
    rows.push("Total slow-down incurred".to_string());

    TableData {
        title: title.to_string(),
        unit: "ms per update".into(),
        rows,
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: Some(paper_vals),
    }
}

/// Table III: pheromone update on the Tesla C1060.
pub fn table3(cfg: &RunConfig) -> TableData {
    table34(
        &DeviceSpec::tesla_c1060(),
        cfg,
        &paper::TABLE3_MS,
        &paper::TABLE3_SLOWDOWN,
        "Table III: pheromone update, Tesla C1060 — measured (paper)",
    )
}

/// Table IV: pheromone update on the Tesla M2050.
pub fn table4(cfg: &RunConfig) -> TableData {
    table34(
        &DeviceSpec::tesla_m2050(),
        cfg,
        &paper::TABLE4_MS,
        &paper::TABLE4_SLOWDOWN,
        "Table IV: pheromone update, Tesla M2050 — measured (paper)",
    )
}

/// CPU-side counters for one construction phase, measured on a few ants
/// and scaled to the full colony (ants are statistically identical).
/// Includes the per-iteration `choice_info` recomputation, mirroring what
/// the GPU rows of Table II include.
pub fn cpu_tour_ms(inst: &TspInstance, params: &AcoParams, policy: TourPolicy) -> f64 {
    let n = inst.n();
    let m = params.ants_for(n);
    let model = CpuModel::default();
    let mut counters = cpu_model::choice_counters(n);

    // Physically measure a handful of ants, scale to m.
    let mut aco = AntSystem::new(inst, params.clone()).with_policy(policy);
    aco.refresh_choice(&mut OpCounter::default());
    let sample = if n <= 442 { 8.min(m) } else { 2 };
    let mut tour_c = OpCounter::default();
    let mut scratch = TourScratch::default();
    for a in 0..sample {
        let mut rng = PmRng::new(PmRng::thread_seed(params.seed, a as u64));
        let _ = aco.construct_one_with(&mut scratch, &mut rng, policy, &mut tour_c);
    }
    let scale = m as f64 / sample as f64;
    let scaled = OpCounter {
        alu: (tour_c.alu as f64 * scale) as u64,
        flops: (tour_c.flops as f64 * scale) as u64,
        pow_calls: (tour_c.pow_calls as f64 * scale) as u64,
        loads: (tour_c.loads as f64 * scale) as u64,
        stores: (tour_c.stores as f64 * scale) as u64,
        rng: (tour_c.rng as f64 * scale) as u64,
        branches: (tour_c.branches as f64 * scale) as u64,
    };
    counters.merge(&scaled);
    model.time_ms(&counters)
}

/// Figure 4(a)/(b) generator: tour-construction speed-up (CPU / GPU) per
/// instance on both devices.
fn fig4(
    cfg: &RunConfig,
    policy: TourPolicy,
    strategy: TourStrategy,
    title: &str,
    peak: (f64, f64),
) -> TableData {
    let instances = instances_upto(cfg.max_n);
    let params = paper_params();

    // CPU reference times (modeled from measured counters).
    let cpu_ms: Vec<f64> =
        instances.iter().map(|inst| cpu_tour_ms(inst, &params, policy)).collect();

    let devices = [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()];
    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, dev) in devices.iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let params = params.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                let run = run_tour(
                    &dev,
                    &mut gm,
                    bufs,
                    strategy,
                    params.alpha,
                    params.beta,
                    params.seed,
                    0,
                    mode,
                )
                .expect("paper-size launches are valid");
                (r, c, run.total_ms())
            }));
        }
    }

    let mut gpu_ms = vec![vec![f64::NAN; instances.len()]; 2];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        gpu_ms[r][c] = v;
    }
    let values: Vec<Vec<f64>> =
        (0..2).map(|r| (0..instances.len()).map(|c| cpu_ms[c] / gpu_ms[r][c]).collect()).collect();

    TableData {
        title: format!("{title} — paper peaks: {}x (C1060), {}x (M2050)", peak.0, peak.1),
        unit: "speed-up factor (sequential CPU time / GPU time; >1 = GPU wins)".into(),
        rows: vec!["Tesla C1060".into(), "Tesla M2050".into()],
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: None,
    }
}

/// Figure 4(a): NN-list construction speed-up.
pub fn fig4a(cfg: &RunConfig) -> TableData {
    fig4(
        cfg,
        TourPolicy::NearestNeighborList,
        TourStrategy::NNListSharedTex,
        "Figure 4(a): tour construction speed-up, NN list (NN = 30)",
        paper::FIG4A_PEAK,
    )
}

/// Figure 4(b): fully probabilistic, data-parallel kernel speed-up.
pub fn fig4b(cfg: &RunConfig) -> TableData {
    fig4(
        cfg,
        TourPolicy::FullProbabilistic,
        TourStrategy::DataParallelTex,
        "Figure 4(b): tour construction speed-up, fully probabilistic",
        paper::FIG4B_PEAK,
    )
}

/// Figure 5: pheromone-update speed-up of the best kernel (atomic +
/// shared) over the sequential update.
pub fn fig5(cfg: &RunConfig) -> TableData {
    let instances = instances_upto(cfg.max_n);
    let params = paper_params();
    let model = CpuModel::default();
    let cpu_ms: Vec<f64> = instances
        .iter()
        .map(|i| model.time_ms(&cpu_model::update_counters(i.n(), params.ants_for(i.n()))))
        .collect();

    let devices = [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()];
    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, dev) in devices.iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let params = params.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                let n = inst.n();
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                let tours: Vec<Tour> = (0..params.ants_for(n))
                    .map(|a| {
                        let mut pm = PmRng::new(PmRng::thread_seed(99, a as u64));
                        let mut order: Vec<u32> = (0..n as u32).collect();
                        for i in (1..n).rev() {
                            let j = (pm.next_f64() * (i + 1) as f64) as usize;
                            order.swap(i, j);
                        }
                        Tour::new_unchecked(order)
                    })
                    .collect();
                bufs.upload_tours(&mut gm, &tours, inst.matrix());
                let run = run_pheromone(
                    &dev,
                    &mut gm,
                    bufs,
                    PheromoneStrategy::AtomicShared,
                    params.rho,
                    mode,
                )
                .expect("paper-size launches are valid");
                (r, c, run.time.total_ms)
            }));
        }
    }

    let mut gpu_ms = vec![vec![f64::NAN; instances.len()]; 2];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        gpu_ms[r][c] = v;
    }
    let values: Vec<Vec<f64>> =
        (0..2).map(|r| (0..instances.len()).map(|c| cpu_ms[c] / gpu_ms[r][c]).collect()).collect();

    TableData {
        title: format!(
            "Figure 5: pheromone update speed-up — paper peaks: {}x (C1060), {}x (M2050)",
            paper::FIG5_PEAK.0,
            paper::FIG5_PEAK.1
        ),
        unit: "speed-up factor (sequential CPU time / GPU time; >1 = GPU wins)".into(),
        rows: vec!["Tesla C1060".into(), "Tesla M2050".into()],
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: None,
    }
}

/// Ablation: the data-parallel kernel's thread-block layout. The paper
/// asserts an "empirically demonstrated optimum thread block layout";
/// this sweep shows where the optimum sits in the model (reduction depth
/// vs occupancy vs tile count trade-off).
pub fn ablation_block(cfg: &RunConfig) -> TableData {
    use aco_core::gpu::tour::DataParallelTourKernel;
    let instances: Vec<TspInstance> =
        instances_upto(cfg.max_n.min(1002)).into_iter().filter(|i| i.n() >= 100).collect();
    let params = paper_params();
    let blocks = [32u32, 64, 128, 256, 512];
    let dev = DeviceSpec::tesla_c1060();

    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, &block) in blocks.iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let params = params.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                // Tile count caps at 32 (bit-packed tabu): skip infeasible
                // combinations.
                if inst.n().div_ceil(block as usize) > 32 {
                    return (r, c, f64::NAN);
                }
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                let ck = aco_core::gpu::choice::ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
                aco_simt::launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full)
                    .expect("choice kernel fits");
                let k = DataParallelTourKernel {
                    bufs,
                    texture: true,
                    seed: params.seed,
                    iteration: 0,
                    block_override: Some(block),
                };
                let run = aco_simt::launch(&dev, &k.config(), &k, &mut gm, mode)
                    .expect("paper-size launches are valid");
                (r, c, run.time.total_ms)
            }));
        }
    }
    let mut values = vec![vec![f64::NAN; instances.len()]; blocks.len()];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        values[r][c] = v;
    }
    TableData {
        title: "Ablation: data-parallel thread-block layout (Tesla C1060)".into(),
        unit: "ms per construction (texture variant)".into(),
        rows: blocks.iter().map(|b| format!("{b} threads/block")).collect(),
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: None,
    }
}

/// Ablation: candidate-list depth for the NN-list kernel (the paper fixes
/// NN = 30, citing 15–40 as the usual range).
pub fn ablation_nn(cfg: &RunConfig) -> TableData {
    let instances: Vec<TspInstance> =
        instances_upto(cfg.max_n.min(1002)).into_iter().filter(|i| i.n() >= 100).collect();
    let depths = [10usize, 20, 30, 40];
    let dev = DeviceSpec::tesla_c1060();

    let mut jobs: Vec<CellJob<'_>> = Vec::new();
    for (r, &nn) in depths.iter().enumerate() {
        for (c, inst) in instances.iter().enumerate() {
            let dev = dev.clone();
            let mode = sim_mode_for(cfg.mode, inst.n());
            jobs.push(Box::new(move || {
                let params = paper_params().nn(nn);
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate(&mut gm, inst, &params);
                let run = run_tour(
                    &dev,
                    &mut gm,
                    bufs,
                    TourStrategy::NNListSharedTex,
                    params.alpha,
                    params.beta,
                    params.seed,
                    0,
                    mode,
                )
                .expect("paper-size launches are valid");
                (r, c, run.total_ms())
            }));
        }
    }
    let mut values = vec![vec![f64::NAN; instances.len()]; depths.len()];
    for (r, c, v) in parallel_cells(jobs, cfg.threads) {
        values[r][c] = v;
    }
    TableData {
        title: "Ablation: candidate-list depth for the NN-list kernel (Tesla C1060)".into(),
        unit: "ms per construction (version 6)".into(),
        rows: depths.iter().map(|d| format!("NN = {d}")).collect(),
        cols: instances.iter().map(|i| i.name().to_string()).collect(),
        values,
        paper: None,
    }
}

/// Solution-quality comparison (the paper's "results are similar" claim):
/// mean best tour over several seeds, CPU AS vs two GPU strategies.
pub fn quality(cfg: &RunConfig) -> TableData {
    let instances: Vec<TspInstance> = instances_upto(cfg.max_n.min(100));
    let params = AcoParams::default().nn(20);
    let seeds = [1u64, 2, 3, 4, 5];
    let iters = 25;
    let dev = DeviceSpec::tesla_m2050();

    let mut rows = Vec::new();
    let mut values = Vec::new();
    let mut cols = Vec::new();
    for inst in &instances {
        cols.push(inst.name().to_string());
    }

    let cpu: Vec<f64> = instances
        .iter()
        .map(|i| cpu_quality(i, &params, TourPolicy::NearestNeighborList, iters, &seeds).mean)
        .collect();
    rows.push("CPU Ant System (NN list)".into());
    values.push(cpu.clone());

    let gpu_nn: Vec<f64> = instances
        .iter()
        .map(|i| {
            gpu_quality(
                i,
                &params,
                &dev,
                TourStrategy::NNList,
                PheromoneStrategy::AtomicShared,
                iters,
                &seeds,
            )
            .mean
        })
        .collect();
    rows.push("GPU task NN list".into());
    values.push(gpu_nn);

    let gpu_dp: Vec<f64> = instances
        .iter()
        .map(|i| {
            gpu_quality(
                i,
                &params,
                &dev,
                TourStrategy::DataParallelTex,
                PheromoneStrategy::AtomicShared,
                iters,
                &seeds,
            )
            .mean
        })
        .collect();
    rows.push("GPU data parallel".into());
    values.push(gpu_dp);

    TableData {
        title: "Solution quality: mean best tour length (5 seeds, 25 iterations)".into(),
        unit: "tour length (lower is better)".into(),
        rows,
        cols,
        values,
        paper: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RunConfig {
        RunConfig { max_n: 100, mode: ModePolicy::Auto, threads: 2 }
    }

    #[test]
    fn table2_small_reproduces_row_ordering() {
        let t = table2(&DeviceSpec::tesla_c1060(), &small_cfg());
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.cols, vec!["att48", "kroC100"]);
        for c in 0..2 {
            assert!(t.values[1][c] < t.values[0][c], "choice kernel helps (col {c})");
            assert!(t.values[2][c] < t.values[1][c], "device RNG helps (col {c})");
            assert!(t.values[3][c] < t.values[2][c], "NN list helps (col {c})");
            // Data parallelism wins on small instances (the paper's claim).
            assert!(t.values[7][c] < t.values[5][c], "DP beats task NN (col {c})");
            // Total speed-up row is v1/v8.
            let ratio = t.values[0][c] / t.values[7][c];
            assert!((t.values[8][c] - ratio).abs() < 1e-9);
            assert!(t.values[8][c] > 5.0, "total speed-up should be large");
        }
    }

    #[test]
    fn table3_small_reproduces_row_ordering() {
        let t = table3(&small_cfg());
        for c in 0..2 {
            assert!(t.values[0][c] <= t.values[1][c] * 1.05, "shared <= plain atomics");
            assert!(t.values[1][c] < t.values[2][c], "atomics beat reduction");
            assert!(t.values[2][c] < t.values[3][c], "reduction beats tiled scatter");
            assert!(t.values[3][c] < t.values[4][c], "tiling beats plain scatter");
            assert!(t.values[5][c] > 5.0, "slow-down factor is large");
        }
    }

    #[test]
    fn table4_atomics_faster_than_table3() {
        let t3 = table3(&small_cfg());
        let t4 = table4(&small_cfg());
        for c in 0..2 {
            assert!(t4.values[0][c] < t3.values[0][c], "Fermi native atomics beat GT200 emulation");
        }
    }

    #[test]
    fn fig5_speedup_grows_with_n() {
        let cfg = RunConfig { max_n: 442, mode: ModePolicy::Auto, threads: 4 };
        let t = fig5(&cfg);
        // Paper: "a linear speed-up along with the problem size".
        for r in 0..2 {
            assert!(
                t.values[r][3] > t.values[r][0],
                "row {r}: speed-up must grow from att48 to pcb442"
            );
        }
        // M2050 > C1060 (native atomics), as in Figure 5.
        assert!(t.values[1][3] > t.values[0][3]);
    }

    #[test]
    fn cpu_tour_ms_scales_superlinearly() {
        let params = paper_params();
        let insts = instances_upto(280);
        let a = cpu_tour_ms(&insts[0], &params, TourPolicy::FullProbabilistic);
        let b = cpu_tour_ms(&insts[2], &params, TourPolicy::FullProbabilistic);
        // n grows ~5.8x from 48 to 280; full construction is ~cubic.
        assert!(b > 20.0 * a, "expected superlinear growth: {a} -> {b}");
    }
}

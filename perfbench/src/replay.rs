//! The layer replay of a traced run.
//!
//! The traced phase's completed jobs are re-executed on one thread
//! through each layer's public functions — `NearestNeighborLists::build`,
//! `ArtifactCache::artifacts`, `auto::resolve`, `DevicePool::place`, the
//! CPU colonies' construction / local-search / pheromone steps, the GPU
//! kernels' `run_tour_threads` / `run_two_opt` / `run_pheromone_threads`
//! — and every call is timed from outside. The loops mirror the
//! colonies' own iteration order, so each replayed job must reach the
//! engine's `best_len` exactly; a mismatch fails the run.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use aco_core::cpu::{construct_parallel, AntColonySystem, AntSystem, MaxMinAntSystem, OpCounter};
use aco_core::gpu::{run_pheromone_threads, run_tour_threads, ColonyBuffers, GpuAntColonySystem};
use aco_core::{AcoParams, PheromoneStrategy, TourStrategy};
use aco_engine::{
    auto, ArtifactCache, Backend, DeviceAffinity, DevicePool, InstanceArtifacts, LocalSearch,
    LsScope, PlacementStrategy,
};
use aco_localsearch::{run_two_opt, TwoOptDev};
use aco_simt::{DeviceSpec, GlobalMem, KernelStats, SimMode};
use aco_tsp::{NearestNeighborLists, Tour, TspInstance};

use crate::closed_loop::JobRecord;
use crate::workload::Mix;
use crate::Metrics;

/// Running mean.
#[derive(Debug, Clone, Copy, Default)]
struct Mean {
    sum: f64,
    count: f64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.add_n(v, 1.0);
    }

    fn add_n(&mut self, total: f64, count: f64) {
        self.sum += total;
        self.count += count;
    }

    fn get(&self) -> f64 {
        ratio(self.sum, self.count)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One kernel family's totals: calls (colony iterations, or local-search
/// passes), host and modeled ms, interpreted warp instructions.
#[derive(Debug, Clone, Copy, Default)]
struct Family {
    calls: f64,
    host_ms: f64,
    modeled_ms: f64,
    warp_instr: f64,
}

impl Family {
    fn add(&mut self, host_ms: f64, modeled_ms: f64, stats: Option<&KernelStats>) {
        self.calls += 1.0;
        self.host_ms += host_ms;
        self.modeled_ms += modeled_ms;
        self.warp_instr += stats.map_or(0.0, |s| s.warp_instructions);
    }

    fn host_per_call(&self) -> f64 {
        ratio(self.host_ms, self.calls)
    }

    fn modeled_per_call(&self) -> f64 {
        ratio(self.modeled_ms, self.calls)
    }

    fn ns_per_warp_instr(&self) -> f64 {
        ratio(self.host_ms * 1e6, self.warp_instr)
    }
}

/// Everything the replay measured.
#[derive(Default)]
pub struct Replay {
    /// Jobs replayed.
    pub jobs: usize,
    /// Jobs whose replay disagreed with the engine, one line each.
    pub mismatches: Vec<String>,
    /// Sum of the timed layer calls per job, ms, by mix index.
    pub job_ms: HashMap<usize, f64>,
    nn_build_ms: Mean,
    cache_miss_ms: Mean,
    cache_hit_us: Mean,
    resolve_miss_ms: Mean,
    resolve_hit_us: Mean,
    place_us: Mean,
    cpu_construct_ms: Mean,
    cpu_pheromone_ms: Mean,
    cpu_step_ns: Mean,
    acs_iter_ms: Mean,
    mmas_iter_ms: Mean,
    ls_cpu_pass_ms: Mean,
    ls_cpu_gain: f64,
    ls_gpu_rounds: Mean,
    tour_rows: BTreeMap<&'static str, Family>,
    pheromone_rows: BTreeMap<&'static str, Family>,
    tour: Family,
    pheromone: Family,
    two_opt: Family,
    gpu_acs: Family,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Index of the first minimum — the iteration-best ant both GPU colonies
/// pick.
fn first_min(lens: &[u64]) -> usize {
    let mut k = 0;
    for (i, &l) in lens.iter().enumerate() {
        if l < lens[k] {
            k = i;
        }
    }
    k
}

fn tour_row(s: TourStrategy) -> &'static str {
    match s {
        TourStrategy::Baseline => "baseline",
        TourStrategy::ChoiceKernel => "choice_kernel",
        TourStrategy::DeviceRng => "device_rng",
        TourStrategy::NNList => "nnlist",
        TourStrategy::NNListShared => "nnlist_shared",
        TourStrategy::NNListSharedTex => "nnlist_shared_tex",
        TourStrategy::DataParallel => "data_parallel",
        TourStrategy::DataParallelTex => "data_parallel_tex",
    }
}

fn pheromone_row(s: PheromoneStrategy) -> &'static str {
    match s {
        PheromoneStrategy::AtomicShared => "atomic_shared",
        PheromoneStrategy::Atomic => "atomic",
        PheromoneStrategy::Reduction => "reduction",
        PheromoneStrategy::ScatterTiled => "scatter_tiled",
        PheromoneStrategy::Scatter => "scatter",
    }
}

/// Replay every completed job of `records` (the traced phase of an
/// engine set up from `mix`).
pub fn run(mix: &Mix, records: &[JobRecord]) -> Replay {
    let mut r = Replay::default();
    let cache = ArtifactCache::new();
    let pool = DevicePool::new(mix.workload.devices(), PlacementStrategy::default());
    // Set-up's warm-up jobs filled the engine's caches; do the same
    // (untimed), so hits and misses fall where they fell in the engine.
    for (i, backend) in &mix.warmup {
        let inst = &*mix.instance(*i);
        let art = cache.artifacts(inst, mix.params.nn_size);
        let params = mix.params.clone().seed(0);
        let (ls, scope) = (LocalSearch::None, LsScope::IterationBest);
        let _ = auto::resolve(
            backend,
            inst,
            &params,
            &art,
            &cache,
            &pool,
            DeviceAffinity::Any,
            ls,
            scope,
        );
    }
    let mut nn_timed = HashSet::new();
    for rec in records {
        let Some(report) = rec.completed() else { continue };
        let job = mix.job(rec.k);
        let inst = &*mix.instance(job.instance);
        let params = mix.params.clone().seed(job.seed);
        if nn_timed.insert(job.instance) {
            let depth = ArtifactCache::effective_depth(inst, params.nn_size);
            let t = Instant::now();
            let lists = NearestNeighborLists::build(inst.matrix(), depth);
            r.nn_build_ms.add(ms_since(t));
            std::hint::black_box(lists.expect("instances have >= 2 cities"));
        }
        let mut job_ms = 0.0;

        let misses = cache.stats().artifact_misses;
        let t = Instant::now();
        let art = cache.artifacts(inst, params.nn_size);
        let dt = ms_since(t);
        job_ms += dt;
        if cache.stats().artifact_misses > misses {
            r.cache_miss_ms.add(dt);
        } else {
            r.cache_hit_us.add(dt * 1e3);
        }

        let auto_job = matches!(job.backend, Backend::Auto);
        let backend = if auto_job {
            let misses = cache.stats().decision_misses;
            let t = Instant::now();
            let backend = auto::resolve(
                &job.backend,
                inst,
                &params,
                &art,
                &cache,
                &pool,
                DeviceAffinity::Any,
                job.local_search,
                LsScope::IterationBest,
            );
            let dt = ms_since(t);
            job_ms += dt;
            if cache.stats().decision_misses > misses {
                r.resolve_miss_ms.add(dt);
            } else {
                r.resolve_hit_us.add(dt * 1e3);
            }
            backend
        } else {
            job.backend.clone()
        };

        // Explicit GPU jobs are placed at submit time; auto-resolved ones
        // rotate over their model's (identical, default) profiles.
        let spec = match &backend {
            Backend::Gpu { device, .. } | Backend::GpuAcs { device, .. } if !auto_job => {
                let m = params.ants_for(inst.n());
                let t = Instant::now();
                let placed =
                    pool.place(device.model(), DeviceAffinity::Any, inst.n(), m, job.iterations);
                let dt = ms_since(t);
                job_ms += dt;
                r.place_us.add(dt * 1e3);
                let placed = placed.expect("the pool holds every model the mix asks for");
                Some(pool.spec(placed.device).expect("placed on a pool device").clone())
            }
            Backend::Gpu { device, .. } | Backend::GpuAcs { device, .. } => Some(device.spec()),
            _ => None,
        };

        let colony =
            r.colony(&backend, inst, &params, &art, spec, job.iterations, job.local_search);
        match colony {
            Ok((best_len, ms)) => {
                job_ms += ms;
                if backend != report.backend || best_len != report.best_len {
                    r.mismatches.push(format!(
                        "job {}: engine ran {} to {}, replay ran {} to {}",
                        rec.k,
                        report.backend.label(),
                        report.best_len,
                        backend.label(),
                        best_len
                    ));
                }
            }
            Err(e) => r.mismatches.push(format!("job {}: replay failed: {e}", rec.k)),
        }
        r.job_ms.insert(rec.k, job_ms);
        r.jobs += 1;
    }
    r
}

impl Replay {
    /// Run one resolved job's colony phase by phase; returns its best
    /// length and the summed wall time of every timed call, ms.
    #[allow(clippy::too_many_arguments)]
    fn colony(
        &mut self,
        backend: &Backend,
        inst: &TspInstance,
        params: &AcoParams,
        art: &InstanceArtifacts,
        spec: Option<DeviceSpec>,
        iterations: usize,
        ls: LocalSearch,
    ) -> Result<(u64, f64), String> {
        let scope = LsScope::IterationBest;
        let mut total = 0.0;
        let t = Instant::now();
        match backend {
            Backend::CpuSequential { policy } | Backend::CpuParallel { policy, .. } => {
                let threads = match backend {
                    Backend::CpuParallel { threads, .. } => Some(*threads),
                    _ => None,
                };
                let nn = Arc::clone(&art.nn);
                let mut aco = AntSystem::with_artifacts(inst, params.clone(), nn, art.c_nn);
                aco.set_local_search(ls, scope);
                total += ms_since(t);
                let steps = (aco.m() * inst.n()) as f64;
                let mut best = u64::MAX;
                for it in 0..iterations {
                    let mut counters = OpCounter::default();
                    let t = Instant::now();
                    aco.refresh_choice(&mut counters);
                    let mut sols = match threads {
                        Some(threads) => construct_parallel(&aco, *policy, it as u64, threads),
                        None => aco.construct_solutions(*policy, &mut counters),
                    };
                    let dt = ms_since(t);
                    total += dt;
                    self.cpu_construct_ms.add(dt);
                    self.cpu_step_ns.add_n(dt * 1e6, steps);
                    if ls.runs_per_iteration() {
                        let before = aco.local_search_improvement();
                        let t = Instant::now();
                        aco.apply_local_search(&mut sols);
                        let dt = ms_since(t);
                        total += dt;
                        self.ls_cpu_pass_ms.add(dt);
                        self.ls_cpu_gain += (aco.local_search_improvement() - before) as f64;
                    }
                    best = best.min(sols.iter().map(|s| s.1).min().expect("m >= 1 ants"));
                    let t = Instant::now();
                    aco.update_pheromone(&sols, &mut counters);
                    let dt = ms_since(t);
                    total += dt;
                    self.cpu_pheromone_ms.add(dt);
                }
                Ok((best, total))
            }
            Backend::CpuAcs(acs) => {
                let nn = Arc::clone(&art.nn);
                let mut colony =
                    AntColonySystem::with_artifacts(inst, params.clone(), *acs, nn, art.c_nn);
                colony.set_local_search(ls, scope);
                total += ms_since(t);
                for _ in 0..iterations {
                    let t = Instant::now();
                    colony.iterate();
                    let dt = ms_since(t);
                    total += dt;
                    self.acs_iter_ms.add(dt);
                }
                Ok((colony.best().ok_or("no iteration ran")?.1, total))
            }
            Backend::CpuMmas(mmas) => {
                let nn = Arc::clone(&art.nn);
                let mut colony =
                    MaxMinAntSystem::with_artifacts(inst, params.clone(), *mmas, nn, art.c_nn);
                colony.set_local_search(ls, scope);
                total += ms_since(t);
                for _ in 0..iterations {
                    let t = Instant::now();
                    colony.iterate();
                    let dt = ms_since(t);
                    total += dt;
                    self.mmas_iter_ms.add(dt);
                }
                Ok((colony.best().ok_or("no iteration ran")?.1, total))
            }
            Backend::Gpu { tour, pheromone, .. } => {
                let spec = spec.ok_or("GPU job without a device")?;
                let mut gm = GlobalMem::new();
                let bufs = ColonyBuffers::allocate_with_artifacts(
                    &mut gm, inst, params, &art.nn, art.c_nn,
                );
                // Same allocation order as the colony's `set_local_search`.
                let two_opt = (ls.per_iteration() == LocalSearch::TwoOptNn).then(|| {
                    TwoOptDev::allocate(
                        &mut gm,
                        bufs.n,
                        bufs.nn,
                        bufs.stride,
                        bufs.dist,
                        bufs.tours,
                        bufs.lengths,
                        bufs.nn_list,
                    )
                });
                total += ms_since(t);
                let (n, stride) = (inst.n(), bufs.stride as usize);
                let mut best = u64::MAX;
                for it in 0..iterations {
                    let t = Instant::now();
                    let run = run_tour_threads(
                        &spec,
                        &mut gm,
                        bufs,
                        *tour,
                        params.alpha,
                        params.beta,
                        params.seed,
                        it as u64,
                        SimMode::Full,
                        1,
                    )
                    .map_err(|e| e.to_string())?;
                    let dt = ms_since(t);
                    total += dt;
                    self.tour.add(dt, run.total_ms(), Some(&run.stats));
                    let row = self.tour_rows.entry(tour_row(*tour)).or_default();
                    row.add(dt, run.total_ms(), None);

                    // Host-exact lengths, read back as the colony does.
                    let t = Instant::now();
                    let mut lens = Vec::with_capacity(bufs.m as usize);
                    for row in bufs.read_tours(&gm) {
                        let cycle = Tour::new(row[..n].to_vec()).map_err(|e| e.to_string())?;
                        lens.push(cycle.length(inst.matrix()));
                    }
                    total += ms_since(t);
                    if let Some(dev) = two_opt {
                        let ant = first_min(&lens);
                        let t = Instant::now();
                        let pass = run_two_opt(&spec, &mut gm, dev, ant as u32, 1)
                            .map_err(|e| e.to_string())?;
                        let row = gm.u32(bufs.tours)[ant * stride..ant * stride + n].to_vec();
                        let cycle = Tour::new(row).map_err(|e| e.to_string())?;
                        lens[ant] = cycle.length(inst.matrix());
                        gm.f32_mut(bufs.lengths)[ant] = lens[ant] as f32;
                        let dt = ms_since(t);
                        total += dt;
                        self.two_opt.add(dt, pass.ms, Some(&pass.stats));
                        self.ls_gpu_rounds.add(pass.rounds as f64);
                    }
                    best = best.min(lens[first_min(&lens)]);
                    let t = Instant::now();
                    let run = run_pheromone_threads(
                        &spec,
                        &mut gm,
                        bufs,
                        *pheromone,
                        params.rho,
                        SimMode::Full,
                        1,
                    )
                    .map_err(|e| e.to_string())?;
                    let dt = ms_since(t);
                    total += dt;
                    self.pheromone.add(dt, run.time.total_ms, Some(&run.stats));
                    let row = self.pheromone_rows.entry(pheromone_row(*pheromone)).or_default();
                    row.add(dt, run.time.total_ms, None);
                }
                Ok((best, total))
            }
            Backend::GpuAcs { acs, .. } => {
                let spec = spec.ok_or("GPU job without a device")?;
                let mut sys = GpuAntColonySystem::with_artifacts(
                    inst,
                    params.clone(),
                    *acs,
                    spec,
                    &art.nn,
                    art.c_nn,
                );
                sys.set_local_search(ls, scope);
                total += ms_since(t);
                for _ in 0..iterations {
                    let t = Instant::now();
                    let (_, tour_ms, update_ms, ls_ms) =
                        sys.iterate().map_err(|e| e.to_string())?;
                    let dt = ms_since(t);
                    total += dt;
                    self.gpu_acs.add(dt, tour_ms + update_ms + ls_ms, None);
                }
                Ok((sys.best().ok_or("no iteration ran")?.1, total))
            }
            Backend::Auto => Err("auto was not resolved".to_string()),
        }
    }

    /// The replay's per-layer metrics.
    pub fn metrics(&self, out: &mut Metrics) {
        let mut push = |name: &str, value: f64, unit: &'static str| {
            out.push((name.to_string(), value, unit));
        };
        push("tsp.nn_build_ms", self.nn_build_ms.get(), "ms");
        push("cache.artifact_miss_ms", self.cache_miss_ms.get(), "ms");
        push("cache.artifact_hit_us", self.cache_hit_us.get(), "us");
        push("auto.resolve_miss_ms", self.resolve_miss_ms.get(), "ms");
        push("auto.resolve_hit_us", self.resolve_hit_us.get(), "us");
        push("devices.place_us", self.place_us.get(), "us");
        push("cpu.construct_ms_per_iter", self.cpu_construct_ms.get(), "ms");
        push("cpu.pheromone_ms_per_iter", self.cpu_pheromone_ms.get(), "ms");
        push("cpu.acs_iter_ms", self.acs_iter_ms.get(), "ms");
        push("cpu.mmas_iter_ms", self.mmas_iter_ms.get(), "ms");
        push("cpu.ns_per_ant_step", self.cpu_step_ns.get(), "ns");
        push("gpu.tour_host_ms_per_iter", self.tour.host_per_call(), "ms");
        push("gpu.tour_modeled_ms_per_iter", self.tour.modeled_per_call(), "ms");
        push("gpu.pheromone_host_ms_per_iter", self.pheromone.host_per_call(), "ms");
        push("gpu.pheromone_modeled_ms_per_iter", self.pheromone.modeled_per_call(), "ms");
        push("gpu.acs_host_ms_per_iter", self.gpu_acs.host_per_call(), "ms");
        push("gpu.acs_modeled_ms_per_iter", self.gpu_acs.modeled_per_call(), "ms");
        for s in TourStrategy::ALL {
            let row = self.tour_rows.get(tour_row(s)).copied().unwrap_or_default();
            let name = tour_row(s);
            push(&format!("gpu.tour.{name}.host_ms_per_iter"), row.host_per_call(), "ms");
            push(&format!("gpu.tour.{name}.modeled_ms_per_iter"), row.modeled_per_call(), "ms");
        }
        for s in PheromoneStrategy::ALL {
            let row = self.pheromone_rows.get(pheromone_row(s)).copied().unwrap_or_default();
            let name = pheromone_row(s);
            push(&format!("gpu.pheromone.{name}.host_ms_per_iter"), row.host_per_call(), "ms");
            push(
                &format!("gpu.pheromone.{name}.modeled_ms_per_iter"),
                row.modeled_per_call(),
                "ms",
            );
        }
        let families =
            [("tour", self.tour), ("pheromone", self.pheromone), ("two_opt", self.two_opt)];
        let instr: f64 = families.iter().map(|(_, f)| f.warp_instr).sum();
        let host: f64 = families.iter().map(|(_, f)| f.host_ms).sum();
        let modeled: f64 = families.iter().map(|(_, f)| f.modeled_ms).sum();
        // Colony iterations are the tour family's calls.
        push("simt.warp_instr_per_iter", ratio(instr, self.tour.calls), "instr");
        push("simt.ns_per_warp_instr", ratio(host * 1e6, instr), "ns");
        push(
            "simt.host_per_modeled",
            ratio(host + self.gpu_acs.host_ms, modeled + self.gpu_acs.modeled_ms),
            "ratio",
        );
        for (name, f) in families {
            push(&format!("simt.{name}.ns_per_warp_instr"), f.ns_per_warp_instr(), "ns");
            push(
                &format!("simt.{name}.warp_instr_per_call"),
                ratio(f.warp_instr, f.calls),
                "instr",
            );
        }
        push("ls.cpu_pass_ms", self.ls_cpu_pass_ms.get(), "ms");
        push("ls.cpu_gain_per_ms", ratio(self.ls_cpu_gain, self.ls_cpu_pass_ms.sum), "length/ms");
        push("ls.gpu_pass_host_ms", self.two_opt.host_per_call(), "ms");
        push("ls.gpu_pass_modeled_ms", self.two_opt.modeled_per_call(), "ms");
        push("ls.gpu_rounds", self.ls_gpu_rounds.get(), "count");
        push("replay.jobs", self.jobs as f64, "count");
        let replayed: f64 = self.job_ms.values().sum();
        push("replay.ms_per_job", ratio(replayed, self.jobs as f64), "ms");
        // Where the replayed time went, as shares of it.
        let cpu = [self.cpu_construct_ms, self.cpu_pheromone_ms, self.acs_iter_ms, self.mmas_iter_ms];
        let split = [
            ("cache", self.cache_miss_ms.sum + self.cache_hit_us.sum / 1e3),
            ("auto", self.resolve_miss_ms.sum + self.resolve_hit_us.sum / 1e3),
            ("cpu", cpu.iter().map(|m| m.sum).sum()),
            ("ls_cpu", self.ls_cpu_pass_ms.sum),
            ("simt", host + self.gpu_acs.host_ms),
        ];
        for (name, ms) in split {
            push(&format!("split.{name}"), ratio(ms, replayed), "fraction");
        }
    }
}

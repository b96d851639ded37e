//! Cost-model backend auto-selection.
//!
//! The paper's evaluation makes the trade-off explicit: on small
//! instances the task-parallel kernels lose to data parallelism, the CPU
//! is competitive below a few hundred cities, and the Fermi devices shift
//! every crossover point. [`resolve`] automates that judgement per
//! instance using the same clocks the paper's figures are computed from:
//!
//! * the sequential CPU is priced by [`CpuModel`] over the analytic
//!   operation counters of `aco_core::cpu::ant_system::model`;
//! * the parallel CPU divides the construction term by its thread count
//!   (at most one per ant);
//! * each GPU candidate is priced by the simulator's kernel-time
//!   estimate, measured on a one-iteration probe launch against the
//!   actual [`DeviceSpec`](aco_simt::DeviceSpec) (block-sampled on large
//!   instances, so a probe stays cheap).
//!
//! Decisions are deterministic in `(instance content, NN depth, m)` and
//! cached in the [`ArtifactCache`], so a batch of `auto` jobs on one
//! instance pays for the probes once.

use aco_core::cpu::{cpu_ls_colony_ms, cpu_phase_ms, LS_ROUNDS_EST};
use aco_core::gpu::{
    run_pheromone, run_tour, sim_mode_for_size, ColonyBuffers, PheromoneStrategy, TourStrategy,
};
use aco_core::{AcoParams, CpuModel, TourPolicy};
use aco_devices::{DeviceAffinity, DevicePool};
use aco_localsearch::{
    probe_or_round_ms, probe_round_ms, LocalSearch, LsScope, OrOptDev, TwoOptDev,
};
use aco_simt::GlobalMem;
use aco_tsp::TspInstance;

use crate::cache::{ArtifactCache, InstanceArtifacts};
use crate::solver::{Backend, GpuDevice};

/// Thread count the parallel-CPU candidate assumes. Fixed (not probed from
/// the host) so decisions — and therefore batch results — are identical on
/// every machine.
pub const AUTO_CPU_THREADS: usize = 4;

/// The GPU strategy pairs `auto` considers: the paper's best task-parallel
/// row and its best data-parallel row, each with the winning pheromone
/// kernel (Tables II–IV).
pub const AUTO_GPU_CANDIDATES: [(TourStrategy, PheromoneStrategy); 2] = [
    (TourStrategy::NNListSharedTex, PheromoneStrategy::AtomicShared),
    (TourStrategy::DataParallelTex, PheromoneStrategy::AtomicShared),
];

/// One scored candidate, for introspection / logging.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEstimate {
    /// The backend this estimate prices.
    pub backend: Backend,
    /// Modeled milliseconds per iteration.
    pub ms_per_iter: f64,
}

/// Seed every GPU probe runs under, regardless of the requesting job's
/// seed. Probe timings vary slightly with the RNG stream (tour shapes
/// steer coalescing and roulette trip counts); pinning the seed makes the
/// decision a pure function of `(instance, α, β, ρ, NN, m)`, so it cannot
/// depend on *which* job of a batch happens to populate the decision
/// cache — the property the engine's worker-count determinism rests on.
pub const PROBE_SEED: u64 = 0x0A07_0CA5;

/// Price candidate backends for `inst` under `params` (the job seed is
/// ignored; see [`PROBE_SEED`]). `gpu_models` restricts the GPU
/// candidates to device models actually installed (pass
/// [`GpuDevice::ALL`] for the unrestricted set); `allow_cpu` gates the
/// CPU candidates (false when the job is pinned to a device).
///
/// `ls` and `scope` fold the job's per-iteration local search into
/// every candidate: CPU candidates pay the analytic pass model (with
/// [`LsScope::AllAnts`] multiplying by the colony size), GPU candidates
/// pay a *probed* kernel round (× [`LS_ROUNDS_EST`]) of the matching
/// windowed device family (`two_opt` or `or_opt`) over the scope's
/// window — one ant for iteration-best, the colony for
/// [`LsScope::AllAnts`] (one launch per phase covers the window, so the
/// all-ants cost is a single windowed round, **not** `round × m`). Only
/// the host-only full 2-opt is priced as host time. This
/// is how enabling local search genuinely shifts the CPU/GPU crossover.
pub fn estimates(
    inst: &TspInstance,
    params: &AcoParams,
    artifacts: &InstanceArtifacts,
    gpu_models: &[GpuDevice],
    allow_cpu: bool,
    ls: LocalSearch,
    scope: LsScope,
) -> Vec<CandidateEstimate> {
    let params = &params.clone().seed(PROBE_SEED);
    let n = inst.n();
    let m = params.ants_for(n);
    let model = CpuModel::default();
    let (choice_ms, tour_ms, update_ms) = cpu_phase_ms(n, m, params.nn_size, &model);
    // Every auto candidate is an Ant-System-family colony (m = ants_for),
    // so one scope multiplier covers them all.
    let host_ls_ms = cpu_ls_colony_ms(ls, scope, n, artifacts.nn.depth(), m, &model);

    let mut out = Vec::new();
    if allow_cpu {
        out.push(CandidateEstimate {
            backend: Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
            ms_per_iter: choice_ms + tour_ms + update_ms + host_ls_ms,
        });
        // Construction runs at most one worker per ant; the local-search
        // pass runs on the fan-in thread.
        let workers = AUTO_CPU_THREADS.min(m) as f64;
        out.push(CandidateEstimate {
            backend: Backend::CpuParallel {
                policy: TourPolicy::NearestNeighborList,
                threads: AUTO_CPU_THREADS,
            },
            ms_per_iter: choice_ms + tour_ms / workers + update_ms + host_ls_ms,
        });
    }

    let mode = sim_mode_for_size(n);
    for &device in gpu_models {
        let dev = device.spec();
        // The local-search round cost depends only on the device (the
        // family reads whatever tours the preceding construction probe
        // left), so probe it once per device — on the first candidate
        // pair — and reuse the number. Pair order is fixed, so the estimate
        // stays a pure function of the inputs.
        let mut ls_round: Option<f64> = None;
        for (tour, pheromone) in AUTO_GPU_CANDIDATES {
            // The data-parallel kernel's bit-packed shared-memory tabu
            // covers at most 32 tiles × 256 threads = 8192 cities; its
            // `config()` asserts (panics) beyond that, so gate the
            // candidate instead of probing it.
            if matches!(tour, TourStrategy::DataParallel | TourStrategy::DataParallelTex)
                && n > 8192
            {
                continue;
            }
            // One probe iteration on a throwaway colony; the estimate is
            // the simulator's kernel-time model, i.e. the same quantity
            // Tables II-IV report.
            let mut gm = GlobalMem::new();
            let bufs = ColonyBuffers::allocate_with_artifacts(
                &mut gm,
                inst,
                params,
                &artifacts.nn,
                artifacts.c_nn,
            );
            let probe = run_tour(
                &dev,
                &mut gm,
                bufs,
                tour,
                params.alpha,
                params.beta,
                params.seed,
                0,
                mode,
            )
            .and_then(|tr| {
                run_pheromone(&dev, &mut gm, bufs, pheromone, params.rho, mode)
                    .map(|pr| tr.total_ms() + pr.time.total_ms)
            })
            .and_then(|iter_ms| {
                // Fold the local-search cost in: the device-resident
                // strategies are priced from one probed kernel round
                // over the scope's window, scaled by the round estimate.
                // Both families cover the whole window in one launch per
                // phase, so an all-ants pass costs one *windowed* round
                // — never `round × m`. Only the host-only full 2-opt
                // still costs host time.
                match ls.per_iteration() {
                    per_iter @ (LocalSearch::TwoOptNn | LocalSearch::OrOpt) => {
                        let round = match ls_round {
                            Some(r) => r,
                            None => {
                                let num = match scope {
                                    LsScope::IterationBest => 1,
                                    LsScope::AllAnts => bufs.m,
                                };
                                let b = bufs;
                                let r = if per_iter == LocalSearch::TwoOptNn {
                                    let ls_bufs = TwoOptDev::allocate(
                                        &mut gm, b.n, b.nn, b.stride, b.dist, b.tours, b.lengths,
                                        b.nn_list,
                                    );
                                    probe_round_ms(&dev, &mut gm, ls_bufs, 0, num, mode)?
                                } else {
                                    let ls_bufs = OrOptDev::allocate(
                                        &mut gm, b.n, b.nn, b.stride, b.dist, b.tours, b.lengths,
                                        b.nn_list,
                                    );
                                    probe_or_round_ms(&dev, &mut gm, ls_bufs, 0, num, mode)?
                                };
                                ls_round = Some(r);
                                r
                            }
                        };
                        Ok(iter_ms + LS_ROUNDS_EST as f64 * round)
                    }
                    _ => Ok(iter_ms + host_ls_ms),
                }
            });
            if let Ok(ms_per_iter) = probe {
                out.push(CandidateEstimate {
                    backend: Backend::Gpu { device, tour, pheromone },
                    ms_per_iter,
                });
            }
            // A probe that fails to launch (device limit) simply drops the
            // candidate; some backend always remains (CPU never fails).
        }
    }
    out
}

/// Pick the fastest candidate. Ties break toward the earliest candidate in
/// enumeration order, which is deterministic.
pub fn choose(estimates: &[CandidateEstimate]) -> Backend {
    estimates
        .iter()
        .min_by(|a, b| a.ms_per_iter.total_cmp(&b.ms_per_iter))
        .map(|c| c.backend.clone())
        .expect("candidate set must not be empty")
}

/// The candidate set an auto job may choose from, given the engine's
/// device pool and the request's affinity: GPU candidates only for
/// models the pool actually contains, and — for a pinned job — only the
/// pinned device's model, with the CPU excluded (a pinned job must run
/// on its device).
fn allowed_candidates(pool: &DevicePool, affinity: DeviceAffinity) -> (Vec<GpuDevice>, bool) {
    if let DeviceAffinity::Pinned(d) = affinity {
        if let Some(profile) = pool.profile(d) {
            return (vec![GpuDevice::from_model(profile.model)], false);
        }
        // An unknown pinned device is rejected at submit; this branch is
        // a defensive fallback for standalone `resolve` callers.
        return (Vec::new(), true);
    }
    let models =
        GpuDevice::ALL.into_iter().filter(|g| !pool.devices_of(g.model()).is_empty()).collect();
    (models, true)
}

/// Resolve [`Backend::Auto`] for `inst` against the engine's device
/// pool, consulting and filling the decision cache; non-auto backends
/// pass through unchanged. The decision is keyed on the allowed
/// candidate set — and on the job's per-iteration local-search strategy
/// *and scope*, which are priced into every candidate — as well as the
/// instance/parameter slice, so jobs with different affinities or
/// local-search configurations on one instance never share a decision.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    backend: &Backend,
    inst: &TspInstance,
    params: &AcoParams,
    artifacts: &InstanceArtifacts,
    cache: &ArtifactCache,
    pool: &DevicePool,
    affinity: DeviceAffinity,
    ls: LocalSearch,
    scope: LsScope,
) -> Backend {
    if !matches!(backend, Backend::Auto) {
        return backend.clone();
    }
    let (gpu_models, allow_cpu) = allowed_candidates(pool, affinity);
    let mask = gpu_models.iter().fold(u8::from(allow_cpu) << 7, |m, g| {
        m | match g {
            GpuDevice::TeslaC1060 => 1,
            GpuDevice::TeslaM2050 => 2,
        }
    });
    let key = (
        artifacts.content_hash,
        ArtifactCache::effective_depth(inst, params.nn_size),
        params.ants_for(inst.n()),
        params.alpha.to_bits(),
        params.beta.to_bits(),
        params.rho.to_bits(),
        mask,
        // Strategy discriminant in the low nibble, scope bit above it —
        // only when a per-iteration strategy runs (scope is irrelevant
        // to pricing otherwise, so None/PostPass jobs share a decision
        // regardless of the scope their request happens to carry).
        ls.per_iteration().discriminant()
            | (u8::from(scope == LsScope::AllAnts && ls.runs_per_iteration()) << 4),
    );
    cache.decision(key, || {
        let est = estimates(inst, params, artifacts, &gpu_models, allow_cpu, ls, scope);
        if est.is_empty() {
            // Every candidate was gated or failed to probe. With the CPU
            // allowed this cannot happen; for a pinned job fall through
            // to the model's most robust kernel pair, so the launch
            // surfaces the real device error instead of a panic here.
            let device = gpu_models.first().copied().unwrap_or(GpuDevice::TeslaC1060);
            return Backend::Gpu {
                device,
                tour: TourStrategy::NNList,
                pheromone: PheromoneStrategy::AtomicShared,
            };
        }
        choose(&est)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_devices::{DeviceId, DeviceProfile, PlacementStrategy};
    use aco_tsp::uniform_random;

    fn artifacts_for(inst: &TspInstance, nn: usize) -> InstanceArtifacts {
        InstanceArtifacts {
            content_hash: inst.content_hash(),
            nn: std::sync::Arc::new(
                aco_tsp::NearestNeighborLists::build(inst.matrix(), nn).unwrap(),
            ),
            c_nn: aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix()),
        }
    }

    fn both_models() -> DevicePool {
        DevicePool::new(
            vec![DeviceProfile::tesla_c1060("g0"), DeviceProfile::tesla_m2050("f0")],
            PlacementStrategy::LeastLoaded,
        )
    }

    #[test]
    fn estimates_cover_cpu_and_gpu() {
        let inst = uniform_random("auto", 32, 500.0, 3);
        let params = AcoParams::default().nn(8);
        let arts = artifacts_for(&inst, 8);
        let est = estimates(
            &inst,
            &params,
            &arts,
            &GpuDevice::ALL,
            true,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert!(est.len() >= 2 + GpuDevice::ALL.len()); // CPUs + at least one GPU pair each
        assert!(est.iter().all(|e| e.ms_per_iter.is_finite() && e.ms_per_iter > 0.0));
    }

    /// Parallel construction runs at most one worker per ant, so a
    /// one-ant colony's parallel estimate is its sequential one.
    #[test]
    fn parallel_estimate_runs_at_most_one_worker_per_ant() {
        let inst = uniform_random("auto-ants", 28, 500.0, 4);
        let params = AcoParams::default().nn(8).ants(1);
        let arts = artifacts_for(&inst, 8);
        let cpu =
            estimates(&inst, &params, &arts, &[], true, LocalSearch::None, LsScope::IterationBest);
        assert!(matches!(cpu[1].backend, Backend::CpuParallel { .. }));
        assert_eq!(cpu[0].ms_per_iter, cpu[1].ms_per_iter);
    }

    #[test]
    fn estimates_respect_the_candidate_gates() {
        let inst = uniform_random("auto-gate", 28, 500.0, 2);
        let params = AcoParams::default().nn(8);
        let arts = artifacts_for(&inst, 8);
        let gpu_only = estimates(
            &inst,
            &params,
            &arts,
            &[GpuDevice::TeslaM2050],
            false,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert!(!gpu_only.is_empty());
        assert!(gpu_only
            .iter()
            .all(|e| matches!(e.backend, Backend::Gpu { device: GpuDevice::TeslaM2050, .. })));
        let cpu_only =
            estimates(&inst, &params, &arts, &[], true, LocalSearch::None, LsScope::IterationBest);
        assert_eq!(cpu_only.len(), 2);
    }

    #[test]
    fn resolution_is_deterministic_and_cached() {
        let inst = uniform_random("auto2", 40, 600.0, 5);
        let params = AcoParams::default().nn(10);
        let arts = artifacts_for(&inst, 10);
        let cache = ArtifactCache::new();
        let pool = both_models();
        let any = DeviceAffinity::Any;
        let a = resolve(
            &Backend::Auto,
            &inst,
            &params,
            &arts,
            &cache,
            &pool,
            any,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        let b = resolve(
            &Backend::Auto,
            &inst,
            &params,
            &arts,
            &cache,
            &pool,
            any,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert_eq!(a, b);
        assert!(!matches!(a, Backend::Auto));
        let s = cache.stats();
        assert_eq!((s.decision_misses, s.decision_hits), (1, 1));
    }

    #[test]
    fn pinned_resolution_excludes_the_cpu_and_other_models() {
        let inst = uniform_random("auto-pin", 30, 500.0, 9);
        let params = AcoParams::default().nn(8);
        let arts = artifacts_for(&inst, 8);
        let cache = ArtifactCache::new();
        let pool = both_models();
        let pinned = DeviceAffinity::Pinned(DeviceId(1)); // the m2050
        let got = resolve(
            &Backend::Auto,
            &inst,
            &params,
            &arts,
            &cache,
            &pool,
            pinned,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert!(
            matches!(got, Backend::Gpu { device: GpuDevice::TeslaM2050, .. }),
            "pinned auto must resolve onto the pinned device's model: {got:?}"
        );
        // A different affinity on the same instance is a distinct
        // decision-cache key, not a hit on the pinned decision.
        let any = resolve(
            &Backend::Auto,
            &inst,
            &params,
            &arts,
            &cache,
            &pool,
            DeviceAffinity::Any,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert_eq!(cache.stats().decision_misses, 2);
        let _ = any;
    }

    #[test]
    fn non_auto_backends_pass_through() {
        let inst = uniform_random("auto3", 20, 300.0, 7);
        let params = AcoParams::default().nn(6);
        let arts = artifacts_for(&inst, 6);
        let cache = ArtifactCache::new();
        let pool = both_models();
        let want = Backend::CpuSequential { policy: TourPolicy::NearestNeighborList };
        let got = resolve(
            &want,
            &inst,
            &params,
            &arts,
            &cache,
            &pool,
            DeviceAffinity::Any,
            LocalSearch::None,
            LsScope::IterationBest,
        );
        assert_eq!(got, want);
        assert_eq!(cache.stats().decision_misses, 0);
    }
}

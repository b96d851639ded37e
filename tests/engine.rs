//! Integration tests for the batch engine: worker-count determinism over
//! a mixed batch, artifact-cache reuse, and auto-backend resolution.

use std::sync::Arc;

use aco_gpu::core::cpu::{AcsParams, MmasParams, TourPolicy};
use aco_gpu::core::gpu::{PheromoneStrategy, TourStrategy};
use aco_gpu::core::AcoParams;
use aco_gpu::engine::{
    Backend, Engine, EngineConfig, EngineError, GpuDevice, RetryPolicy, SolveRequest,
};
use aco_gpu::tsp;

/// A batch of ≥ 8 jobs mixing instance sizes and CPU / GPU / auto
/// backends, two of them sharing one instance (cache reuse).
fn mixed_batch() -> Vec<SolveRequest> {
    let small = Arc::new(tsp::uniform_random("batch30", 30, 500.0, 1));
    let mid = Arc::new(tsp::uniform_random("batch42", 42, 700.0, 2));
    let large = Arc::new(tsp::uniform_random("batch56", 56, 900.0, 3));
    let params = |nn: usize| AcoParams::default().nn(nn).ants(12);

    vec![
        SolveRequest::new(Arc::clone(&small), params(8))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(5)
            .seed(101),
        SolveRequest::new(Arc::clone(&small), params(8))
            .backend(Backend::CpuParallel { policy: TourPolicy::NearestNeighborList, threads: 3 })
            .iterations(5)
            .seed(102),
        SolveRequest::new(Arc::clone(&mid), params(10))
            .backend(Backend::Gpu {
                device: GpuDevice::TeslaC1060,
                tour: TourStrategy::NNList,
                pheromone: PheromoneStrategy::AtomicShared,
            })
            .iterations(4)
            .seed(103),
        SolveRequest::new(Arc::clone(&mid), params(10))
            .backend(Backend::Gpu {
                device: GpuDevice::TeslaM2050,
                tour: TourStrategy::DataParallelTex,
                pheromone: PheromoneStrategy::Reduction,
            })
            .iterations(4)
            .seed(104),
        SolveRequest::new(Arc::clone(&large), params(10))
            .backend(Backend::CpuAcs(AcsParams::default()))
            .iterations(6)
            .seed(105),
        SolveRequest::new(Arc::clone(&large), params(10))
            .backend(Backend::CpuMmas(MmasParams::default()))
            .iterations(4)
            .seed(106),
        SolveRequest::new(Arc::clone(&small), params(8))
            .backend(Backend::Auto)
            .iterations(4)
            .seed(107),
        SolveRequest::new(Arc::clone(&large), params(10))
            .backend(Backend::Auto)
            .iterations(3)
            .seed(108),
        SolveRequest::new(Arc::clone(&mid), params(10))
            .backend(Backend::GpuAcs { device: GpuDevice::TeslaC1060, acs: AcsParams::default() })
            .iterations(3)
            .seed(109),
    ]
}

/// `(family, launches, modeled-ms bits)` of the serial run of
/// [`mixed_batch`], in name order.
const GOLDEN_KERNELS: [(&str, u64, u64); 8] = [
    ("acs_global_update", 3, 0x3f990f3f086c0000),
    ("acs_tour", 3, 0x3ff8160418937000),
    ("choice_info", 12, 0x3fb3701c32dd0000),
    ("pheromone_deposit_atomic", 7, 0x3fd1f67cf85a0000),
    ("pheromone_evaporate", 7, 0x3fa711db92c00000),
    ("pheromone_reduction", 4, 0x3fcc4d69cfe80000),
    ("tour_data_parallel", 7, 0x3fc9e819ab328000),
    ("tour_task", 4, 0x3ff01bc6405f7000),
];

#[test]
fn four_worker_batch_is_bit_identical_to_serial_execution() {
    // The acceptance criterion: ≥ 8 mixed jobs, 4 workers vs 1 worker,
    // identical SolveReports (tours, lengths, modeled times, backends).
    let serial_engine = Engine::new(EngineConfig::with_workers(1));
    let parallel_engine = Engine::new(EngineConfig::with_workers(4));
    let serial: Vec<_> = serial_engine.run_batch(mixed_batch());
    let parallel: Vec<_> = parallel_engine.run_batch(mixed_batch());

    assert_eq!(serial.len(), parallel.len());
    assert!(serial.len() >= 8, "acceptance requires at least 8 jobs");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "job {i} differs between 1-worker and 4-worker runs");
    }
    // Results are exact: each report's length recomputes from its tour on
    // the instance the request named (batch order == result order).
    for (req, r) in mixed_batch().iter().zip(&serial) {
        let rep = r.as_ref().expect("every job solves");
        assert!(rep.best_tour.is_valid());
        assert_eq!(rep.instance, req.instance.name());
        assert_eq!(rep.best_len, rep.best_tour.length(req.instance.matrix()));
    }

    // The serial run's work, pinned exactly: per job the best length,
    // the backend it ran on (the two `Auto` jobs resolve to parallel CPU
    // AS and the M2050 data-parallel row) and the modeled-ms bits; the
    // cache's hits and misses; and every kernel family's launches and
    // modeled-ms bits. Any change to the work a colony, the auto resolver
    // or the SIMT interpreter does for this batch fails here. Host speed
    // is not checked; perfbench's alternating pairs measure that.
    let nn = TourPolicy::NearestNeighborList;
    let gpu = |device, tour, pheromone| Backend::Gpu { device, tour, pheromone };
    let golden = [
        (2433, Backend::CpuSequential { policy: nn }, 0x3fd31ad2d51fb216),
        (2566, Backend::CpuParallel { policy: nn, threads: 3 }, 0x3fce4e7e65373b96),
        (
            4213,
            gpu(GpuDevice::TeslaC1060, TourStrategy::NNList, PheromoneStrategy::AtomicShared),
            0x3ff51195c1c03be0,
        ),
        (
            3750,
            gpu(GpuDevice::TeslaM2050, TourStrategy::DataParallelTex, PheromoneStrategy::Reduction),
            0x3fd60dbc341a0872,
        ),
        (5523, Backend::CpuAcs(AcsParams::default()), 0x3ff2d56d52621075),
        (6411, Backend::CpuMmas(MmasParams::default()), 0x3fe91c91c32d6b46),
        (2516, Backend::CpuParallel { policy: nn, threads: 4 }, 0x3fc786f1d540660a),
        (
            5794,
            gpu(
                GpuDevice::TeslaM2050,
                TourStrategy::DataParallelTex,
                PheromoneStrategy::AtomicShared,
            ),
            0x3fc4c9c0abaee1f5,
        ),
        (
            3520,
            Backend::GpuAcs { device: GpuDevice::TeslaC1060, acs: AcsParams::default() },
            0x3ff87a4114b5225c,
        ),
    ];
    assert_eq!(serial.len(), golden.len());
    for (i, (r, (best_len, backend, modeled_bits))) in serial.iter().zip(golden).enumerate() {
        let rep = r.as_ref().expect("every job solves");
        assert_eq!(rep.best_len, best_len, "job {i}: best length");
        assert_eq!(rep.backend, backend, "job {i}: backend");
        assert_eq!(
            rep.modeled_ms.to_bits(),
            modeled_bits,
            "job {i}: modeled ms {}",
            rep.modeled_ms
        );
    }
    let cache = serial_engine.cache_stats();
    assert_eq!((cache.artifact_hits, cache.artifact_misses), (6, 3), "artifact cache");
    assert_eq!((cache.decision_hits, cache.decision_misses), (0, 2), "decision cache");
    let kernels = serial_engine.metrics().kernels;
    let got: Vec<_> = kernels
        .iter()
        .map(|k| (k.family.as_str(), k.invocations, k.modeled_ms.to_bits()))
        .collect();
    assert_eq!(got, GOLDEN_KERNELS, "kernel families (name, launches, modeled-ms bits)");
    // The 4-worker engine launches the same kernels, and the profiler's
    // integer sums do not depend on the order launches complete in.
    let parallel_kernels = parallel_engine.metrics().kernels;
    assert_eq!(kernels.len(), parallel_kernels.len());
    for (s, p) in kernels.iter().zip(&parallel_kernels) {
        assert_eq!((&s.family, s.invocations), (&p.family, p.invocations));
        assert_eq!(s.modeled_ms.to_bits(), p.modeled_ms.to_bits(), "{}", s.family);
    }
}

#[test]
fn reports_are_internally_consistent() {
    let engine = Engine::new(EngineConfig::with_workers(4));
    for r in engine.run_batch(mixed_batch()) {
        let rep = r.expect("every job solves");
        assert!(rep.best_tour.is_valid(), "{}: invalid tour", rep.instance);
        assert_eq!(rep.best_tour.n(), rep.n);
        assert!(rep.best_len > 0);
        assert!(rep.modeled_ms > 0.0, "{:?}: no modeled time", rep.backend);
        assert!(!matches!(rep.backend, Backend::Auto), "auto must resolve");
        assert_eq!(rep.outcome, aco_gpu::engine::JobOutcome::Completed);
    }
}

#[test]
fn second_job_on_an_instance_reuses_cached_artifacts() {
    let inst = Arc::new(tsp::uniform_random("cached", 36, 600.0, 9));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let req = |seed: u64| {
        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(10).ants(10))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(3)
            .seed(seed)
    };
    let a = engine.submit(req(1)).wait().expect("job 1");
    let stats_after_first = engine.cache_stats();
    let b = engine.submit(req(2)).wait().expect("job 2");
    let stats_after_second = engine.cache_stats();

    assert_eq!(stats_after_first.artifact_misses, 1, "first job builds the NN lists");
    assert_eq!(stats_after_second.artifact_misses, 1, "second job must not rebuild");
    assert_eq!(
        stats_after_second.artifact_hits,
        stats_after_first.artifact_hits + 1,
        "second job reuses the cached NN lists"
    );
    // Different seeds still explore independently.
    assert_eq!(a.n, b.n);
}

#[test]
fn auto_jobs_share_one_cost_model_decision_per_instance() {
    let inst = Arc::new(tsp::uniform_random("auto-batch", 32, 500.0, 4));
    let engine = Engine::new(EngineConfig::with_workers(2));
    let reqs: Vec<_> = (0..4)
        .map(|s| {
            SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
                .backend(Backend::Auto)
                .iterations(3)
                .seed(s)
        })
        .collect();
    let reports = engine.run_batch(reqs);
    let backends: Vec<_> = reports.into_iter().map(|r| r.expect("job solves").backend).collect();
    assert!(backends.windows(2).all(|w| w[0] == w[1]), "one decision for all: {backends:?}");
    let stats = engine.cache_stats();
    assert_eq!(stats.decision_misses, 1, "cost models ran once");
    assert_eq!(stats.decision_hits, 3, "three jobs reused the decision");
}

/// A colony without ants constructs no tour. Every backend reports that
/// the same way — `NoSolution`, with no iteration run — and, since the
/// verdict is not retryable, a retry policy does not repeat it.
#[test]
fn zero_ants_is_no_solution_on_every_backend() {
    let inst = Arc::new(tsp::uniform_random("no-ants", 24, 500.0, 6));
    let engine = Engine::new(EngineConfig::with_workers(2));
    let backends = [
        Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
        Backend::CpuParallel { policy: TourPolicy::NearestNeighborList, threads: 2 },
        Backend::CpuAcs(AcsParams::default()),
        Backend::CpuMmas(MmasParams::default()),
        Backend::Gpu {
            device: GpuDevice::TeslaC1060,
            tour: TourStrategy::NNList,
            pheromone: PheromoneStrategy::AtomicShared,
        },
        Backend::GpuAcs { device: GpuDevice::TeslaM2050, acs: AcsParams::default() },
    ];
    for backend in backends {
        let label = backend.label();
        let h = engine.submit(
            SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(0))
                .backend(backend)
                .iterations(2)
                .retry(RetryPolicy::retries(2)),
        );
        let events = h.progress();
        assert_eq!(h.wait(), Err(EngineError::NoSolution), "{label}");
        assert_eq!(events.count(), 0, "{label}: no iteration ran");
    }
}

/// CPU ACS keeps one value per candidate, however deep the lists are: at
/// depth 80 on 100 cities, both the pure roulette (`q0 = 0`) and the
/// default mix of exploitation and roulette build valid tours whose
/// reported length is exact.
#[test]
fn cpu_acs_handles_candidate_lists_deeper_than_64() {
    let inst = Arc::new(tsp::uniform_random("acs-deep", 100, 1000.0, 7));
    let engine = Engine::new(EngineConfig::with_workers(2));
    for q0 in [0.0, AcsParams::default().q0] {
        let acs = AcsParams { q0, ..AcsParams::default() };
        let h = engine.submit(
            SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(80).ants(10))
                .backend(Backend::CpuAcs(acs))
                .iterations(5)
                .seed(9),
        );
        let report = h.wait().unwrap_or_else(|e| panic!("q0 = {q0}: {e}"));
        assert_eq!(report.iterations, 5, "q0 = {q0}");
        assert!(report.best_tour.is_valid(), "q0 = {q0}: invalid tour");
        assert_eq!(report.best_len, report.best_tour.length(inst.matrix()), "q0 = {q0}");
    }
}

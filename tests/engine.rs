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

#[test]
fn four_worker_batch_is_bit_identical_to_serial_execution() {
    // The acceptance criterion: ≥ 8 mixed jobs, 4 workers vs 1 worker,
    // identical SolveReports (tours, lengths, modeled times, backends).
    let serial: Vec<_> = Engine::new(EngineConfig::with_workers(1)).run_batch(mixed_batch());
    let parallel: Vec<_> = Engine::new(EngineConfig::with_workers(4)).run_batch(mixed_batch());

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

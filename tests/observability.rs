//! Integration tests for the observability subsystem: the determinism
//! contract (metrics/traces are write-only — solve results, placements
//! and progress sequences are bit-identical with observability on or
//! off, at any worker count), the pinned histogram bucket boundaries,
//! per-job timeline structure, and the engine metrics export surface.
//!
//! Latency assertions here are **structural** (presence, monotonicity,
//! conservation), never wall-clock thresholds — the CI container has one
//! core and arbitrary scheduling jitter.

use std::sync::Arc;

use aco_gpu::core::cpu::TourPolicy;
use aco_gpu::core::gpu::{PheromoneStrategy, TourStrategy};
use aco_gpu::core::AcoParams;
use aco_gpu::engine::{
    Backend, DynamicsConfig, Engine, EngineConfig, GpuDevice, MetricsSnapshot, SolveRequest,
    LATENCY_BUCKETS_MS,
};
use aco_gpu::tsp;

mod common;
use common::{fingerprint, mixed_batch, BatchFingerprint};

fn run_batch(workers: usize, observe: bool, inst: &Arc<tsp::TspInstance>) -> BatchFingerprint {
    let engine = Engine::new(EngineConfig::with_workers(workers).observe(observe));
    assert_eq!(engine.observability_enabled(), observe);
    fingerprint(mixed_batch(inst).into_iter().map(|r| engine.submit(r)).collect())
}

/// Acceptance: observability cannot change solve results, device
/// placements, or progress sequences — pinned across the on/off setting
/// *and* 1 vs 4 workers simultaneously.
#[test]
fn results_placements_and_progress_identical_obs_on_off_at_1_and_4_workers() {
    let inst = Arc::new(tsp::uniform_random("obs-det", 32, 500.0, 13));
    let baseline = run_batch(1, true, &inst);
    for (workers, observe) in [(1, false), (4, true), (4, false)] {
        assert_eq!(
            baseline,
            run_batch(workers, observe, &inst),
            "batch changed at workers={workers} observe={observe}"
        );
    }
}

/// The shared latency bucket boundaries are part of the export contract
/// (dashboards depend on them); any change must be deliberate.
#[test]
fn latency_bucket_boundaries_are_pinned() {
    assert_eq!(LATENCY_BUCKETS_MS, [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0]);
    assert!(LATENCY_BUCKETS_MS.windows(2).all(|w| w[0] < w[1]), "bounds strictly increasing");
}

/// Timeline structure: every job that ran has exactly one iteration span
/// per completed iteration, in order, with non-negative phase times; the
/// scalar latencies are present and non-negative (no wall-clock
/// thresholds — structure only).
#[test]
fn timelines_have_one_span_per_iteration_and_sane_structure() {
    let inst = Arc::new(tsp::uniform_random("obs-tl", 32, 500.0, 17));
    let engine = Engine::new(EngineConfig::with_workers(2));
    let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
    for h in handles {
        let report = h.wait().expect("job solves");
        let tl = h.timeline().expect("observability defaults on");
        assert!(!tl.backend.is_empty(), "backend label recorded");
        assert_eq!(tl.device, report.device.map(|d| d.0), "trace device matches report");
        assert_eq!(tl.iterations.len(), report.iterations, "one span per iteration");
        for (k, s) in tl.iterations.iter().enumerate() {
            assert_eq!(s.iteration, k as u64, "spans in iteration order");
            assert!(s.construction_ms >= 0.0 && s.local_search_ms >= 0.0 && s.pheromone_ms >= 0.0);
            assert!(s.total_ms() > 0.0, "modeled phases cannot all be zero");
        }
        assert_eq!(tl.dropped_iterations, 0, "short jobs fit the trace bound");
        assert!(tl.queue_wait_ms >= 0.0 && tl.placement_ms >= 0.0 && tl.post_pass_ms >= 0.0);
        let first = tl.first_event_ms.expect("completed jobs emitted progress");
        // Monotone pipeline: the first event cannot precede the queue
        // wait that delivered the job to a worker.
        assert!(first >= tl.queue_wait_ms, "first event at {first} before queue wait");
        assert!(tl.solve_wall_ms >= 0.0, "solve wall recorded");
        assert_eq!(tl.job, h.id().as_u64());
        // GPU-placed jobs profile their kernel families; pure-CPU jobs
        // launch no kernels.
        if report.device.is_some() {
            assert!(!tl.kernels.is_empty(), "GPU job records kernel profiles");
            for k in &tl.kernels {
                assert!(k.invocations > 0 && k.modeled_ms > 0.0);
            }
        }
        assert_eq!(h.progress_dropped(), 0, "default buffer holds these short streams");
    }
    // Every job ran, so every timeline landed in the engine ring.
    assert_eq!(engine.recent_timelines().len(), 7);
    assert_eq!(engine.timelines_evicted(), 0);
}

/// The artifact cache-hit flag is per-job attributable at one worker:
/// the first job on an instance builds, every later one hits.
#[test]
fn cache_hit_flag_attributes_first_build_at_one_worker() {
    let inst = Arc::new(tsp::uniform_random("obs-cache", 28, 400.0, 3));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let req = |seed| {
        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(2)
            .seed(seed)
    };
    let handles: Vec<_> = (0..3).map(|s| engine.submit(req(s))).collect();
    let hits: Vec<Option<bool>> = handles
        .iter()
        .map(|h| {
            h.wait().expect("job solves");
            h.timeline().expect("obs on").artifact_cache_hit
        })
        .collect();
    assert_eq!(hits, vec![Some(false), Some(true), Some(true)]);
}

/// Disabled observability: no timelines, no metrics, empty snapshot —
/// and the handles still work.
#[test]
fn disabled_observability_records_nothing() {
    let inst = Arc::new(tsp::uniform_random("obs-off", 28, 400.0, 5));
    let engine = Engine::new(EngineConfig::with_workers(1).observe(false));
    let h = engine.submit(
        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
            .backend(Backend::Gpu {
                device: GpuDevice::TeslaM2050,
                tour: TourStrategy::DataParallelTex,
                pheromone: PheromoneStrategy::AtomicShared,
            })
            .iterations(2)
            .seed(1),
    );
    h.wait().expect("job solves");
    assert!(h.timeline().is_none(), "no trace allocated when disabled");
    assert_eq!(h.progress_dropped(), 0);
    assert!(engine.recent_timelines().is_empty());
    let snap = engine.metrics();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty());
    assert!(snap.histograms.is_empty() && snap.kernels.is_empty());
    assert!(snap.to_prometheus().is_empty());
}

/// Engine metrics snapshot: scheduler counters reconcile with the batch,
/// histogram counts conserve (sum of buckets == count == jobs), and the
/// bridged per-device / cache series appear with label-embedded names.
#[test]
fn metrics_snapshot_reconciles_with_the_batch() {
    let inst = Arc::new(tsp::uniform_random("obs-met", 32, 500.0, 23));
    let engine = Engine::new(EngineConfig::with_workers(2));
    let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
    for h in &handles {
        h.wait().expect("job solves");
    }
    let snap = engine.metrics();
    let counter = |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(counter("aco_engine_jobs_submitted_total"), Some(7));
    assert_eq!(counter("aco_engine_jobs_completed_total"), Some(7));
    assert_eq!(counter("aco_engine_jobs_failed_total"), Some(0));
    assert_eq!(gauge("aco_engine_jobs_running"), Some(0), "batch fully drained");
    assert_eq!(gauge("aco_engine_queue_depth"), Some(0));
    // The cache series bridge the native counters exactly.
    let cs = engine.cache_stats();
    assert_eq!(counter("aco_cache_artifact_hits_total"), Some(cs.artifact_hits));
    assert_eq!(counter("aco_cache_artifact_misses_total"), Some(cs.artifact_misses));
    // Per-device series exist for every pool device, labels embedded.
    for d in engine.device_stats() {
        let name = format!("aco_device_queued{{device=\"{}\"}}", d.name);
        assert_eq!(gauge(&name), Some(0), "drained queue for {}", d.name);
        let waits = format!("aco_device_admission_waits_total{{device=\"{}\"}}", d.name);
        assert_eq!(counter(&waits), Some(d.admission_waits));
    }
    // Latency histograms: one observation per job that ran, buckets
    // conserve the count, sums non-negative — no wall-clock thresholds.
    for h in ["aco_engine_queue_wait_ms", "aco_engine_first_event_ms", "aco_engine_placement_ms"] {
        let hist = snap
            .histograms
            .iter()
            .find(|s| s.name == h)
            .unwrap_or_else(|| panic!("{h} registered"));
        assert_eq!(hist.bounds, LATENCY_BUCKETS_MS.to_vec(), "{h} uses the shared bounds");
        assert_eq!(hist.count, 7, "{h}: one observation per job");
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count, "{h}: buckets conserve count");
        assert!(hist.sum_ms >= 0.0);
    }
    // Kernel profiler: the explicit-GPU jobs launched kernels; every
    // family shows positive invocations and modeled time, and the
    // Prometheus text carries them with family labels.
    assert!(!snap.kernels.is_empty(), "GPU jobs profile kernel families");
    let text = snap.to_prometheus();
    assert!(text.contains("aco_kernel_invocations_total{family=\"tour_"));
    assert!(text.contains("# TYPE aco_engine_queue_wait_ms histogram"));
    assert!(text.contains("aco_engine_queue_wait_ms_bucket{le=\"+Inf\"} 7"));
}

/// Per-job series are rendered from the timeline ring at snapshot time,
/// never registered: after every job, the `aco_job_*` names are exactly
/// three per dynamics timeline still in the ring, and once the ring is
/// full the export stops growing with the number of jobs run.
#[test]
fn per_job_series_cover_exactly_the_timeline_ring() {
    let inst = Arc::new(tsp::uniform_random("obs-ring", 24, 400.0, 29));
    let engine = Engine::new(
        EngineConfig::with_workers(1).trace_capacity(4).dynamics(DynamicsConfig::default()),
    );
    let series = |s: &MetricsSnapshot| {
        s.counters.len() + s.gauges.len() + s.float_gauges.len() + s.histograms.len()
    };
    let mut counts = Vec::new();
    for seed in 0..12 {
        engine
            .submit(
                SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
                    .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
                    .iterations(3)
                    .seed(seed),
            )
            .wait()
            .expect("job solves");
        let snap = engine.metrics();
        let mut exported: Vec<String> = snap
            .gauges
            .iter()
            .map(|(n, _)| n)
            .chain(snap.float_gauges.iter().map(|(n, _)| n))
            .chain(snap.counters.iter().map(|(n, _)| n))
            .filter(|n| n.starts_with("aco_job_"))
            .cloned()
            .collect();
        exported.sort();
        let mut expected: Vec<String> = engine
            .recent_timelines()
            .iter()
            .filter(|t| t.dynamics.is_some())
            .flat_map(|t| {
                ["aco_job_entropy", "aco_job_lambda_branching", "aco_job_stagnant_iterations"]
                    .map(|base| format!("{base}{{job=\"{}\"}}", t.job))
            })
            .collect();
        expected.sort();
        assert_eq!(exported, expected, "per-job series after job {seed}");
        counts.push(series(&snap));
    }
    assert_eq!(engine.recent_timelines().len(), 4);
    assert_eq!(counts[11], counts[3], "series count is flat once the ring is full: {counts:?}");
}

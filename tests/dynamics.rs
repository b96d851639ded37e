//! Integration tests for the search-dynamics layer and the event
//! journal: the write-only contract (solve results, placements and
//! progress sequences are bit-identical with dynamics/journal on or off,
//! at any worker count), per-backend statistics sanity, journal
//! export/replay fidelity, stagnation detection, and MMAS restart
//! surfacing.

use std::sync::Arc;

use aco_gpu::core::cpu::{MmasParams, TourPolicy};
use aco_gpu::core::AcoParams;
use aco_gpu::engine::{
    replay_timeline, Backend, DynamicsConfig, Engine, EngineConfig, IterationEvent, JournalConfig,
    LocalSearch, SolveRequest,
};
use aco_gpu::tsp;

mod common;

/// One request per backend family, so every colony's dynamics path runs.
fn mixed_batch(inst: &Arc<tsp::TspInstance>, iterations: usize) -> Vec<SolveRequest> {
    common::batch_of(inst, [(iterations, LocalSearch::None); 6])
}

fn config(workers: usize, dynamics: bool, journal: bool) -> EngineConfig {
    let mut cfg = EngineConfig::with_workers(workers);
    if dynamics {
        cfg = cfg.dynamics(DynamicsConfig::default().window(10));
    }
    if journal {
        cfg = cfg.journal(JournalConfig::default());
    }
    cfg
}

/// Everything a batch reports plus its full progress streams.
type BatchFingerprint = Vec<(u64, Vec<u32>, Option<u32>, u64, Vec<IterationEvent>)>;

fn run_batch(cfg: EngineConfig, inst: &Arc<tsp::TspInstance>) -> BatchFingerprint {
    let engine = Engine::new(cfg);
    let handles: Vec<_> = mixed_batch(inst, 5).into_iter().map(|r| engine.submit(r)).collect();
    common::completed(handles)
        .into_iter()
        .map(|(r, events)| {
            (r.best_len, r.best_tour.order().to_vec(), r.device.map(|d| d.0), r.restarts, events)
        })
        .collect()
}

/// A fingerprint with events reduced to `(iteration, iter_best,
/// best_so_far, device)` — the stats-free view.
type MaskedFingerprint = Vec<(u64, Vec<u32>, Option<u32>, u64, Vec<(u64, u64, u64, Option<u32>)>)>;

/// An event stripped of the telemetry-only `stats` field — what must be
/// identical between dynamics-on and dynamics-off runs.
fn mask_stats(batch: &BatchFingerprint) -> MaskedFingerprint {
    batch
        .iter()
        .map(|(best, tour, dev, restarts, events)| {
            (
                *best,
                tour.clone(),
                *dev,
                *restarts,
                events
                    .iter()
                    .map(|e| (e.iteration, e.iter_best, e.best_so_far, e.device))
                    .collect(),
            )
        })
        .collect()
}

/// Acceptance: dynamics and the journal cannot change solve results,
/// placements, or progress sequences — pinned across the on/off setting
/// and 1 vs 4 workers simultaneously. With dynamics on, the *full*
/// events (statistics included) are additionally bit-identical at any
/// worker count.
#[test]
fn results_identical_with_dynamics_and_journal_on_or_off_at_1_and_4_workers() {
    let inst = Arc::new(tsp::uniform_random("dyn-det", 32, 500.0, 13));
    let baseline = run_batch(config(1, true, true), &inst);
    for (workers, dynamics, journal) in
        [(1, false, false), (4, false, false), (1, true, false), (4, true, true)]
    {
        let other = run_batch(config(workers, dynamics, journal), &inst);
        assert_eq!(
            mask_stats(&baseline),
            mask_stats(&other),
            "batch changed at workers={workers} dynamics={dynamics} journal={journal}"
        );
        if dynamics {
            assert_eq!(
                baseline, other,
                "dynamics statistics changed at workers={workers} journal={journal}"
            );
        }
    }
}

/// Every backend family attaches plausible statistics to every event,
/// and the per-job timeline folds them into a dynamics summary.
#[test]
fn every_backend_attaches_sane_statistics() {
    let inst = Arc::new(tsp::uniform_random("dyn-sane", 32, 500.0, 17));
    let n = inst.n() as f64;
    let engine = Engine::new(config(2, true, false));
    let handles: Vec<_> = mixed_batch(&inst, 5).into_iter().map(|r| engine.submit(r)).collect();
    for h in handles {
        let stream = h.progress();
        let report = h.wait().expect("job solves");
        let events: Vec<IterationEvent> = stream.collect();
        assert_eq!(events.len(), report.iterations);
        for ev in &events {
            let s = ev.stats.unwrap_or_else(|| {
                panic!(
                    "dynamics on: event {} of {} has stats",
                    ev.iteration,
                    report.backend.label()
                )
            });
            assert!(
                s.mean_len >= ev.iter_best as f64,
                "{}: mean ant length {} below iteration best {}",
                report.backend.label(),
                s.mean_len,
                ev.iter_best
            );
            assert!(s.stddev_len >= 0.0);
            assert!(
                s.entropy > 0.0 && s.entropy <= 1.0 + 1e-9,
                "{}: entropy {} outside (0, 1]",
                report.backend.label(),
                s.entropy
            );
            assert!(
                s.lambda_branching >= 0.0 && s.lambda_branching <= n - 1.0,
                "{}: lambda branching {} outside [0, n-1]",
                report.backend.label(),
                s.lambda_branching
            );
            assert!(!s.stagnant, "short healthy runs never trip the window-10 detector");
        }
        // Improvements on the stream reconcile with the run's net gain.
        let total: u64 = events.iter().filter_map(|e| e.stats).map(|s| s.improvement).sum();
        assert_eq!(total, events[0].best_so_far - report.best_len);
        let tl = h.timeline().expect("obs on");
        let d = tl.dynamics.as_ref().expect("dynamics summary folded into the timeline");
        assert_eq!(d.iterations, report.iterations as u64);
        assert_eq!(d.final_best, report.best_len);
        assert_eq!(d.total_improvement, total);
    }
}

/// Journal fidelity: the exported JSONL replays into a timeline that
/// matches the live one, and every lifecycle event class appears.
#[test]
fn journal_replay_matches_live_timelines() {
    let inst = Arc::new(tsp::uniform_random("dyn-journal", 32, 500.0, 23));
    let engine = Engine::new(config(2, true, true));
    let handles: Vec<_> = mixed_batch(&inst, 5).into_iter().map(|r| engine.submit(r)).collect();
    for h in &handles {
        h.wait().expect("job solves");
    }
    let text = engine.journal_export().expect("journal configured");
    for ev in
        ["\"ev\":\"submit\"", "\"ev\":\"placement\"", "\"ev\":\"iteration\"", "\"ev\":\"complete\""]
    {
        assert!(text.contains(ev), "journal records {ev}");
    }
    for h in &handles {
        let live = h.timeline().expect("obs on");
        let replayed = replay_timeline(&text, h.id().as_u64())
            .unwrap_or_else(|| panic!("job {} replays", h.id().as_u64()));
        assert_eq!(replayed.job, live.job);
        assert_eq!(replayed.backend, live.backend);
        assert_eq!(replayed.device, live.device);
        assert_eq!(replayed.artifact_cache_hit, live.artifact_cache_hit);
        assert!((replayed.queue_wait_ms - live.queue_wait_ms).abs() < 0.01);
        assert!((replayed.solve_wall_ms - live.solve_wall_ms).abs() < 0.01);
        let (rd, ld) = (
            replayed.dynamics.as_ref().expect("replayed dynamics"),
            live.dynamics.as_ref().expect("live dynamics"),
        );
        assert_eq!(rd.iterations, ld.iterations);
        assert_eq!(rd.final_best, ld.final_best);
        assert_eq!(rd.total_improvement, ld.total_improvement);
        assert!((rd.final_entropy - ld.final_entropy).abs() < 1e-5);
    }
    assert!(replay_timeline(&text, 9999).is_none(), "unknown jobs do not replay");
}

/// Iteration sampling bounds journal growth without touching the other
/// event classes.
#[test]
fn journal_sampling_keeps_lifecycle_events() {
    let inst = Arc::new(tsp::uniform_random("dyn-sample", 28, 400.0, 29));
    let engine = Engine::new(
        EngineConfig::with_workers(1)
            .dynamics(DynamicsConfig::default())
            .journal(JournalConfig::default().sample_every(4)),
    );
    let h = engine.submit(
        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(8)
            .seed(1),
    );
    h.wait().expect("job solves");
    let text = engine.journal_export().expect("journal configured");
    let iters = text.lines().filter(|l| l.contains("\"ev\":\"iteration\"")).count();
    assert_eq!(iters, 2, "iterations 0 and 4 of 8 survive a stride of 4");
    assert_eq!(text.lines().filter(|l| l.contains("\"ev\":\"submit\"")).count(), 1);
    assert_eq!(text.lines().filter(|l| l.contains("\"ev\":\"complete\"")).count(), 1);
}

/// A tight no-improvement window trips the stagnation detector: the
/// engine counter moves, the journal records the onset, and the per-job
/// gauges appear in the metrics export.
#[test]
fn stagnation_detector_fires_and_is_exported() {
    let inst = Arc::new(tsp::uniform_random("dyn-stag", 24, 400.0, 31));
    let engine = Engine::new(
        EngineConfig::with_workers(1)
            .dynamics(DynamicsConfig::default().window(2))
            .journal(JournalConfig::default()),
    );
    let h = engine.submit(
        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(40)
            .seed(2),
    );
    let report = h.wait().expect("job solves");
    let tl = h.timeline().expect("obs on");
    let d = tl.dynamics.as_ref().expect("dynamics tracked");
    assert!(
        d.stagnation_events >= 1,
        "40 iterations on a tiny instance must stall a window-2 detector"
    );
    let snap = engine.metrics();
    let counter = |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let stagnations = counter("aco_engine_stagnation_events_total").expect("counter registered");
    assert_eq!(stagnations, d.stagnation_events, "engine counter matches the summary");
    let text = engine.journal_export().expect("journal configured");
    assert_eq!(
        text.lines().filter(|l| l.contains("\"ev\":\"stagnation\"")).count() as u64,
        d.stagnation_events,
        "one journal line per onset"
    );
    // Per-job dynamics gauges are bridged into the snapshot.
    let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let job = h.id().as_u64();
    let float_gauge =
        |name: &str| snap.float_gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let entropy = float_gauge(&format!("aco_job_entropy{{job=\"{job}\"}}")).expect("entropy gauge");
    assert_eq!(entropy, d.final_entropy);
    assert!(gauge(&format!("aco_job_stagnant_iterations{{job=\"{job}\"}}")).is_some());
    assert_eq!(report.restarts, 0, "plain AS never restarts");
}

/// MMAS stagnation restarts surface on the report and the engine-wide
/// counter — and stay deterministic across worker counts.
#[test]
fn mmas_restarts_surface_on_report_and_metrics() {
    let inst = Arc::new(tsp::uniform_random("dyn-restart", 24, 400.0, 37));
    let run = |workers: usize| {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let h = engine.submit(
            SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(8).ants(8))
                .backend(Backend::CpuMmas(MmasParams { gb_every: 0, restart_after: 3 }))
                .iterations(30)
                .seed(3),
        );
        let report = h.wait().expect("job solves");
        let snap = engine.metrics();
        let counted = snap
            .counters
            .iter()
            .find(|(n, _)| n == "aco_engine_restarts_total")
            .map(|(_, v)| *v)
            .expect("restart counter registered");
        assert_eq!(counted, report.restarts, "metrics bridge the report count");
        report
    };
    let r1 = run(1);
    assert!(r1.restarts >= 1, "restart_after=3 over 30 iterations must fire");
    assert_eq!(r1.restarts, run(4).restarts, "restarts deterministic in the seed");
}

//! Integration tests for the job-lifecycle surface: streaming progress,
//! cancellation, deadlines, priority scheduling, and the 2-opt post-pass
//! — the acceptance criteria of the lifecycle refactor.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use aco_gpu::core::cpu::{AcsParams, TourPolicy};
use aco_gpu::core::gpu::{PheromoneStrategy, TourStrategy};
use aco_gpu::core::AcoParams;
use aco_gpu::engine::{
    Backend, Engine, EngineConfig, EngineError, GpuDevice, IterationEvent, JobOutcome, JobStatus,
    LocalSearch, Priority, SolveRequest,
};
use aco_gpu::tsp;

fn seq_req(inst: &Arc<tsp::TspInstance>, seed: u64, iterations: usize) -> SolveRequest {
    SolveRequest::new(Arc::clone(inst), AcoParams::default().nn(8).ants(10))
        .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
        .iterations(iterations)
        .seed(seed)
}

/// A mixed batch exercising every backend family, without local search,
/// plus one `Auto` job.
fn mixed_batch(inst: &Arc<tsp::TspInstance>) -> Vec<SolveRequest> {
    let none = LocalSearch::None;
    common::batch_of(inst, [(5, none), (5, none), (4, none), (4, none), (3, none), (3, none)])
}

/// Acceptance: the full progress event sequence — not just the final
/// report — is bit-identical at 1 and 4 workers, for every backend
/// family.
#[test]
fn progress_streams_identical_at_1_and_4_workers() {
    let inst = Arc::new(tsp::uniform_random("life-det", 32, 500.0, 7));
    let collect = |workers: usize| -> Vec<(Vec<IterationEvent>, u64)> {
        let engine = Engine::new(EngineConfig::with_workers(workers));
        let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
        handles
            .into_iter()
            .map(|h| {
                let stream = h.progress();
                let report = h.wait().expect("job solves");
                assert_eq!(report.outcome, JobOutcome::Completed);
                let events: Vec<IterationEvent> = stream.collect();
                assert_eq!(events.len(), report.iterations, "one event per iteration");
                // Events are internally consistent: best-so-far is the
                // running minimum of the iteration bests.
                let mut best = u64::MAX;
                for (k, ev) in events.iter().enumerate() {
                    assert_eq!(ev.iteration, k as u64);
                    best = best.min(ev.iter_best);
                    assert_eq!(ev.best_so_far, best);
                }
                assert_eq!(best, report.best_len);
                (events, report.best_len)
            })
            .collect()
    };
    assert_eq!(collect(1), collect(4), "progress streams must not depend on worker count");
}

/// Acceptance: a mid-flight cancel stops the colony at an iteration
/// boundary well before the requested count, and the partial best is
/// reported with a `Cancelled` outcome.
#[test]
fn cancel_mid_flight_returns_promptly_with_partial_best() {
    let inst = Arc::new(tsp::uniform_random("life-cancel", 48, 700.0, 9));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let iterations = 50_000; // far more than could run in test time
    let h = engine.submit(seq_req(&inst, 1, iterations));
    // Wait until the job demonstrably runs (first iteration event), then
    // cancel and time the turnaround.
    let mut stream = h.progress();
    let first = stream.next().expect("job emits progress");
    assert_eq!(first.iteration, 0);
    let t0 = Instant::now();
    h.cancel();
    let report = h.wait().expect("partial best is reported");
    let turnaround = t0.elapsed();
    assert_eq!(report.outcome, JobOutcome::Cancelled);
    assert!(report.iterations >= 1, "at least the observed iteration completed");
    assert!(
        report.iterations < iterations,
        "cancel must interrupt: ran {} of {iterations}",
        report.iterations
    );
    assert!(report.best_tour.is_valid());
    assert_eq!(report.best_len, report.best_tour.length(inst.matrix()));
    // One iteration on n=48/m=10 is well under a second even in debug;
    // a prompt cancel cannot take longer than a generous multiple.
    assert!(turnaround < Duration::from_secs(10), "cancel took {turnaround:?}");
    assert_eq!(engine.outstanding(), 0, "claimed job frees its slot");
}

/// Cancelling a queued job finalises it immediately — without running a
/// solver, touching the cache, or leaking its result slot.
#[test]
fn cancel_while_queued_is_immediate_and_leaves_cache_untouched() {
    let inst = Arc::new(tsp::uniform_random("life-queue", 40, 600.0, 3));
    let engine = Engine::new(EngineConfig::with_workers(1));
    // Occupy the single worker, then queue a victim behind it.
    let blocker = engine.submit(seq_req(&inst, 1, 50_000));
    let mut blocker_stream = blocker.progress();
    blocker_stream.next().expect("blocker runs");
    let victim = engine.submit(seq_req(&inst, 2, 5));
    assert_eq!(victim.status(), JobStatus::Queued);
    victim.cancel();
    // The cancelled queued job is already finalised: wait returns without
    // the worker ever picking it up.
    assert_eq!(victim.wait(), Err(EngineError::Cancelled));
    assert_eq!(victim.progress().count(), 0, "never ran, no events");
    let stats = engine.cache_stats();
    blocker.cancel();
    assert!(blocker.wait().is_ok(), "blocker reports its partial best");
    assert_eq!(
        stats.artifact_misses + stats.artifact_hits,
        1,
        "only the blocker touched the artifact cache: {stats:?}"
    );
    assert_eq!(engine.outstanding(), 0, "both slots freed after claims");
}

/// Priority scheduling: with one worker busy, a later-submitted job
/// re-prioritised to `High` runs before an earlier `Normal` job.
#[test]
fn set_priority_reorders_queued_jobs() {
    let inst = Arc::new(tsp::uniform_random("life-prio", 40, 600.0, 5));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let blocker = engine.submit(seq_req(&inst, 1, 50_000));
    let mut blocker_stream = blocker.progress();
    blocker_stream.next().expect("blocker runs");

    let normal = engine.submit(seq_req(&inst, 2, 3));
    // Long-running, so it is observably *still running* when we check
    // the normal job below (a short job could finish — and release the
    // worker to the normal job — before this thread gets to look).
    let late = engine.submit(seq_req(&inst, 3, 50_000).priority(Priority::Low));
    assert_eq!(late.priority(), Priority::Low);
    late.set_priority(Priority::High);
    assert_eq!(late.priority(), Priority::High);

    // Release the worker; it must pick the high-priority job first.
    blocker.cancel();
    assert!(blocker.wait().is_ok());
    let mut late_stream = late.progress();
    late_stream.next().expect("high-priority job runs");
    assert_eq!(
        normal.status(),
        JobStatus::Queued,
        "normal job must still be queued while the re-prioritised one runs"
    );
    late.cancel();
    assert!(late.wait().is_ok(), "cancelled mid-flight: partial best");
    assert!(normal.wait().is_ok());
}

/// An already-expired deadline stops the job before its first iteration;
/// a generous one does not perturb the result.
#[test]
fn deadlines_bound_jobs() {
    let inst = Arc::new(tsp::uniform_random("life-deadline", 30, 500.0, 8));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let expired = engine.submit(seq_req(&inst, 1, 5).timeout(Duration::ZERO));
    assert_eq!(expired.wait(), Err(EngineError::DeadlineExpired));

    let roomy = engine.submit(seq_req(&inst, 1, 5).timeout(Duration::from_secs(3600)));
    let baseline = engine.submit(seq_req(&inst, 1, 5));
    let t0 = Instant::now();
    let a = roomy.wait().expect("generous deadline completes");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "wait on a deadlined job must return when the job does, not oversleep \
         toward the deadline ({:?})",
        t0.elapsed()
    );
    let b = baseline.wait().expect("no deadline completes");
    assert_eq!(a, b, "an unexercised deadline must not change the result");
}

/// A queued job whose deadline passes while a long blocker holds the
/// only worker is expired by its waiter at the deadline — not whenever a
/// worker finally frees up.
#[test]
fn queued_job_expires_at_its_deadline_behind_a_blocker() {
    let inst = Arc::new(tsp::uniform_random("life-overdue", 40, 600.0, 6));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let blocker = engine.submit(seq_req(&inst, 1, 50_000));
    blocker.progress().next().expect("blocker runs");
    let short = engine.submit(seq_req(&inst, 2, 5).timeout(Duration::from_millis(50)));
    let t0 = Instant::now();
    assert_eq!(short.wait(), Err(EngineError::DeadlineExpired));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "wait must return at the deadline, not after the blocker ({:?})",
        t0.elapsed()
    );
    blocker.cancel();
    assert!(blocker.wait().is_ok(), "blocker reports its partial best");
}

/// Satellite acceptance: the per-request 2-opt post-pass never worsens
/// the tour, the reported length stays exact, and the quality gain is
/// visible as `local_search_improvement`.
#[test]
fn two_opt_post_pass_never_worsens() {
    let inst = Arc::new(tsp::uniform_random("life-2opt", 60, 900.0, 12));
    let engine = Engine::new(EngineConfig::with_workers(2));
    for backend in [
        Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
        Backend::CpuAcs(AcsParams::default()),
        Backend::Gpu {
            device: GpuDevice::TeslaC1060,
            tour: TourStrategy::NNList,
            pheromone: PheromoneStrategy::AtomicShared,
        },
    ] {
        let req = SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(12).ants(10))
            .backend(backend.clone())
            .iterations(3)
            .seed(21);
        let plain = engine.submit(req.clone()).wait().expect("plain job solves");
        assert_eq!(plain.local_search_improvement, 0, "no local search requested");
        let polished = engine
            .submit(req.local_search(LocalSearch::PostPass))
            .wait()
            .expect("2-opt job solves");
        assert!(
            polished.best_len <= plain.best_len,
            "{backend:?}: 2-opt worsened {} -> {}",
            plain.best_len,
            polished.best_len
        );
        assert_eq!(
            polished.local_search_improvement,
            plain.best_len - polished.best_len,
            "{backend:?}: the post-pass reports its exact improvement"
        );
        assert!(polished.best_tour.is_valid());
        assert_eq!(polished.best_len, polished.best_tour.length(inst.matrix()));
        assert_eq!(polished.outcome, JobOutcome::Completed);
    }
}

/// `local_search(LocalSearch::PostPass)` is the one spelling of the
/// end-of-run polish (the pre-`LocalSearch` `two_opt(bool)` builder is
/// gone): the strategy round-trips through the builder and solves.
#[test]
fn post_pass_strategy_round_trips_through_the_builder() {
    let inst = Arc::new(tsp::uniform_random("life-compat", 30, 500.0, 3));
    let req = seq_req(&inst, 1, 2).local_search(LocalSearch::PostPass);
    assert_eq!(req.local_search, LocalSearch::PostPass);
    let req = req.local_search(LocalSearch::None);
    assert_eq!(req.local_search, LocalSearch::None);
    let engine = Engine::new(EngineConfig::with_workers(1));
    let rep = engine
        .submit(seq_req(&inst, 1, 2).local_search(LocalSearch::PostPass))
        .wait()
        .expect("post-pass job solves");
    assert_eq!(rep.best_len, rep.best_tour.length(inst.matrix()));
}

/// Progress buffers are bounded: overflowing drops the oldest events and
/// counts them, keeping the newest.
#[test]
fn progress_buffer_is_bounded_and_counts_drops() {
    let inst = Arc::new(tsp::uniform_random("life-bound", 25, 400.0, 2));
    let engine = Engine::new(EngineConfig::with_workers(1));
    let h = engine.submit(seq_req(&inst, 4, 12).progress_events(4));
    assert!(h.wait().is_ok());
    let stream = h.progress();
    assert_eq!(stream.dropped(), 8, "12 events through a 4-slot buffer");
    let events: Vec<IterationEvent> = stream.collect();
    assert_eq!(events.len(), 4);
    assert_eq!(events.last().expect("non-empty").iteration, 11, "newest events are kept");
}

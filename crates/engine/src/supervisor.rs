//! Retry supervision: one job's attempts, fault delivery, watchdog
//! reclassification and failover re-placement, plus the submit-time
//! health preview that walks the same pure failover function.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aco_core::lifecycle::{SolveCtx, StopReason};
use aco_core::TourPolicy;
use aco_devices::{DeviceAffinity, DeviceId, DeviceModel, DevicePool};
use aco_faults::{FaultInjector, FaultKind};
use aco_obs::KernelSink;
use aco_simt::SimtError;

use crate::auto;
use crate::scheduler::{JobState, Shared};
use crate::solver::{
    build_solver, solve, stop_error, AttemptFault, Backend, EngineError, Failover, GpuBinding,
    JobOutcome, SolveReport, SolveRequest,
};

/// The [`SolveCtx`] one *attempt* runs under: the job's cancel token, the
/// attempt's effective deadline (the job deadline capped by the
/// per-attempt watchdog, when one is armed), and an observer feeding the
/// bounded progress buffer. The observer stamps each event with the
/// device the job is bound to (if any) — bound before the solver is
/// built, so the stamp is identical on every event and deterministic
/// across worker counts. The observer also stamps the submit→first-event
/// latency (once, on the first event) into the scheduler histogram and
/// the job's trace — pure recording, so it cannot perturb the event
/// sequence.
///
/// With [`EngineConfig::dynamics`] armed the ctx carries the config (so
/// colonies measure and the driver attaches [`aco_obs::IterationStats`]
/// to each event), and the observer additionally folds the stats into
/// the job's timeline, samples iteration records into the journal, and
/// journals/counts stagnation *onsets* (healthy→stagnant edges) — all
/// write-only.
fn job_ctx(shared: &Shared, id: u64, state: &Arc<JobState>, deadline: Option<Instant>) -> SolveCtx {
    let trace = state.trace.clone();
    let first_event_ms = shared.metrics.first_event_ms.clone();
    let stagnation_metric = shared.metrics.stagnation_events.clone();
    let journal = shared.journal.clone();
    let started = shared.started;
    let was_stagnant = AtomicBool::new(false);
    let obs_state = Arc::clone(state);
    let mut ctx = SolveCtx::new().with_cancel(state.cancel.clone()).with_observer(move |mut ev| {
        if !obs_state.first_event.swap(true, Ordering::Relaxed) {
            let ms = obs_state.submitted.elapsed().as_secs_f64() * 1e3;
            first_event_ms.observe(ms);
            if let Some(trace) = &obs_state.trace {
                trace.record_first_event_ms(ms);
            }
        }
        ev.device = obs_state.device_id().map(|d| d.0);
        // Healthy → stagnant edges count once per entry (the detector
        // state lives here, per attempt, not in the colony).
        let mut onset = false;
        if let Some(stats) = ev.stats {
            if let Some(trace) = &obs_state.trace {
                trace.record_dynamics(ev.iteration, ev.best_so_far, &stats);
            }
            let prev = was_stagnant.swap(stats.stagnant, Ordering::Relaxed);
            onset = stats.stagnant && !prev;
            if onset {
                stagnation_metric.inc();
            }
        }
        if let Some(j) = &journal {
            let ts = started.elapsed().as_secs_f64() * 1e3;
            if ev.iteration % j.sample_every() == 0 {
                // Iteration samples are journaled with or without
                // dynamics; the stats fields simply stay absent.
                j.record_iteration(
                    ts,
                    id,
                    ev.iteration,
                    ev.iter_best,
                    ev.best_so_far,
                    ev.stats.as_ref(),
                );
            }
            if let (true, Some(stats)) = (onset, ev.stats) {
                j.record_stagnation(ts, id, ev.iteration, stats.stagnant_iterations, stats.entropy);
            }
        }
        obs_state.progress.push(ev);
    });
    if let Some(cfg) = shared.dynamics {
        ctx = ctx.with_dynamics(cfg);
    }
    if let Some(d) = deadline {
        ctx = ctx.with_deadline(d);
    }
    if let Some(trace) = trace {
        ctx = ctx.with_trace(trace);
    }
    ctx
}

/// The CPU backend jobs degrade to when [`Failover::CpuFallback`] runs
/// out of healthy devices: the workspace's reference solver, which
/// depends on no device at all.
fn cpu_fallback_backend() -> Backend {
    Backend::CpuSequential { policy: TourPolicy::NearestNeighborList }
}

/// Label of the backend an attempt runs (the request's own, or the CPU
/// fallback when the supervisor degraded the job).
fn attempt_backend_label(req: &SolveRequest, force_cpu: bool) -> String {
    if force_cpu {
        cpu_fallback_backend().label()
    } else {
        req.backend.label()
    }
}

/// Wait for a free resident-job slot on `d` (the gate every execution
/// path respects), polling every 100 µs, until `stop` gives a reason to
/// stop waiting.
fn wait_for_slot(
    pool: &DevicePool,
    d: DeviceId,
    stop: impl Fn() -> Option<StopReason>,
) -> Result<(), StopReason> {
    while !pool.try_admit_unqueued(d) {
        if let Some(reason) = stop() {
            return Err(reason);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

/// Run one attempt of a job: resolve the backend, bind a device, build
/// the solver and drive it under `ctx` — delivering this attempt's
/// injected fault, if the engine's plan schedules one.
fn run_attempt(
    shared: &Shared,
    id: u64,
    state: &JobState,
    req: &SolveRequest,
    ctx: &SolveCtx,
    attempt: u32,
    force_cpu: bool,
) -> Result<SolveReport, EngineError> {
    // A colony without ants constructs no tour: every backend reports
    // that the same way, before any artifact, probe or iteration runs.
    if req.params.num_ants == Some(0) {
        return Err(EngineError::NoSolution);
    }
    let inst = &*req.instance;
    let seed = req.effective_seed();
    let params = req.params.clone().seed(seed);
    let (artifacts, built_here) = shared.cache.artifacts_with_origin(inst, params.nn_size);
    if let Some(trace) = &state.trace {
        trace.record_cache(!built_here);
    }
    let backend = if force_cpu {
        cpu_fallback_backend()
    } else {
        auto::resolve(
            &req.backend,
            inst,
            &params,
            &artifacts,
            &shared.cache,
            &shared.pool,
            req.affinity,
            req.local_search,
            req.ls_scope,
        )
    };
    // Bind the job to a pool device. Explicitly-GPU jobs were placed at
    // submit time (affinity-aware, least-loaded); an auto job that just
    // resolved to a GPU backend rotates over the compatible devices as a
    // pure function of its id, so the binding — like everything else
    // about the job — cannot depend on execution order. The device's
    // resident-job slot budget applies either way: the auto path waits
    // for a free slot here (staying responsive to cancel/deadline),
    // mirroring what a device-queued entry does in `pop_device_queue`.
    let device = match state.device_id() {
        Some(d) => Some(d),
        None => match backend.required_model() {
            Some(model) => {
                let d = shared.pool.rotate_avoiding(model, req.affinity, id, state.qmask)?;
                wait_for_slot(&shared.pool, d, || ctx.stop_reason()).map_err(stop_error)?;
                // The worker loop releases via `state.device_id()`, so
                // the id is only published once the slot is held.
                state.set_device(d);
                Some(d)
            }
            None => None,
        },
    };
    let gpu = device.and_then(|d| {
        Some(GpuBinding {
            spec: shared.pool.spec(d)?.clone(),
            exec_threads: shared.pool.profile(d)?.exec_threads,
            donated: shared.donate.then(|| Arc::clone(&shared.donated)),
        })
    });
    if let Some(trace) = &state.trace {
        trace.set_backend(&backend.label());
        if let Some(d) = device {
            trace.set_device(d.0);
        }
    }
    // Route this thread's simulated-kernel launches (the colony's and any
    // nested auto-probe's) into the job's trace and the engine profiler
    // for the duration of the solve. Nothing is installed with
    // observability off, so the launch path pays one thread-local read.
    let _kernel_scope = shared.obs.is_enabled().then(|| {
        aco_obs::install(KernelSink {
            trace: state.trace.clone(),
            profiler: Some(Arc::clone(shared.obs.profiler())),
        })
    });
    let mut colony =
        build_solver(&backend, inst, &params, &artifacts, gpu, req.local_search, req.ls_scope);
    // Deliver this attempt's injected fault, if the plan schedules one —
    // a pure function of (job, device, attempt), so the same attempt
    // faults identically at any worker count. Armed only now, *after*
    // backend resolution and solver construction, so auto-probe kernel
    // launches never trip a fault meant for the solve itself.
    let _fault_scope = match shared.injector.fault_for(id, device.map(|d| d.0), attempt) {
        Some(FaultKind::Hang) => {
            // A hung device: burn wall time (bounded by the plan's hang
            // cap, and interruptible by cancel/deadline) and then surface
            // the retryable device-fault class. The error message carries
            // no timing, so reports stay bit-identical across runs.
            let cap =
                Duration::from_millis(shared.injector.plan().map(|p| p.hang_cap_ms()).unwrap_or(0));
            let hung_at = Instant::now();
            while hung_at.elapsed() < cap && ctx.stop_reason().is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            return Err(EngineError::Simt(SimtError::DeviceFault(format!(
                "injected hang (job {id}, attempt {attempt})"
            ))));
        }
        Some(FaultKind::KernelPanic) => match device {
            // GPU attempts panic from inside the kernel launch path (the
            // hook in `aco_simt::launch_threads`), exercising the same
            // unwind the real failure would take.
            Some(_) => Some(aco_faults::launch::arm(aco_faults::launch::LaunchFault::Panic(
                format!("injected kernel panic (job {id}, attempt {attempt})"),
            ))),
            None => panic!("injected solver panic (job {id}, attempt {attempt})"),
        },
        Some(FaultKind::TransientError) => match device {
            Some(_) => Some(aco_faults::launch::arm(aco_faults::launch::LaunchFault::Transient(
                format!("injected transient device error (job {id}, attempt {attempt})"),
            ))),
            None => {
                return Err(EngineError::Simt(SimtError::DeviceFault(format!(
                    "injected transient device error (job {id}, attempt {attempt})"
                ))))
            }
        },
        None => None,
    };
    let mut report = solve(&mut *colony, backend, req.iterations, seed, ctx)?;
    report.instance = inst.name().to_string();
    report.n = inst.n();
    report.device = device;
    if req.local_search.is_post_pass()
        && report.outcome == JobOutcome::Completed
        && ctx.stop_reason().is_none()
    {
        // Host-side 2-opt post-pass (the paper's named hybridisation);
        // strictly non-worsening, pinned by tests/lifecycle.rs. Skipped
        // for cancelled/expired jobs — and when the deadline elapsed (or
        // a cancel arrived) during the final iteration, where the
        // outcome is still Completed: an unbounded local search after
        // the budget is spent would break the prompt-cancel and
        // wall-clock-budget guarantees.
        let mut scratch = aco_localsearch::LsScratch::new();
        let post_t0 = Instant::now();
        // One pass stops at a don't-look-bit fixpoint, which can fall
        // short of 2-opt local optimality; iterate fresh passes until
        // the move stream dries up, matching the pre-LocalSearch
        // post-pass (run-to-optimality) behaviour.
        loop {
            let gain = req.local_search.improve(
                &mut report.best_tour,
                inst.matrix(),
                &artifacts.nn,
                &mut scratch,
            );
            report.best_len -= gain;
            report.local_search_improvement += gain;
            if gain == 0 {
                break;
            }
        }
        debug_assert_eq!(report.best_len, report.best_tour.length(inst.matrix()));
        if let Some(trace) = &state.trace {
            trace.record_post_pass_ms(post_t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(report)
}

/// Where the supervisor runs a job's next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptTarget {
    /// Re-run exactly as submitted (CPU jobs retry their own backend).
    Resubmit,
    /// Run on this pool device.
    Gpu(DeviceId),
    /// Degrade to the CPU reference backend.
    Cpu,
}

/// The pure failover function: where attempt `attempt` of job `job` runs
/// after the previous attempt failed on `failed`. A pure function of its
/// arguments — no live health, no wall clock — shared by the submit-time
/// supervision preview and the run-time supervisor, which is what makes
/// retry placements bit-identical at any worker count. Returns `None`
/// when no target remains (the job fails with its last error).
#[allow(clippy::too_many_arguments)]
fn next_attempt_device(
    pool: &DevicePool,
    model: DeviceModel,
    affinity: DeviceAffinity,
    job: u64,
    attempt: u32,
    avoid: u64,
    qmask: u64,
    failover: Failover,
    failed: DeviceId,
) -> Option<AttemptTarget> {
    if failover == Failover::Same {
        return Some(AttemptTarget::Gpu(failed));
    }
    if let DeviceAffinity::Pinned(d) = affinity {
        // A pin is a contract: retries never move to another device. With
        // a CPU fallback the first pin failure degrades immediately —
        // there is no other device the pin would allow.
        return match failover {
            Failover::CpuFallback => Some(AttemptTarget::Cpu),
            _ => Some(AttemptTarget::Gpu(d)),
        };
    }
    let masked = |d: &DeviceId, mask: u64| d.0 < 64 && (mask >> d.0) & 1 == 1;
    let compatible = pool.devices_of(model);
    let fresh: Vec<DeviceId> =
        compatible.iter().copied().filter(|d| !masked(d, avoid) && !masked(d, qmask)).collect();
    let pick = |set: &[DeviceId]| set[((job + attempt as u64) % set.len() as u64) as usize];
    if !fresh.is_empty() {
        return Some(AttemptTarget::Gpu(pick(&fresh)));
    }
    match failover {
        Failover::CpuFallback => Some(AttemptTarget::Cpu),
        _ => {
            // Every compatible device already failed or is quarantined:
            // wrap back to the already-failed ones (a transient fault may
            // have cleared) rather than fail outright — but never to a
            // quarantined device.
            let open: Vec<DeviceId> =
                compatible.iter().copied().filter(|d| !masked(d, qmask)).collect();
            (!open.is_empty()).then(|| AttemptTarget::Gpu(pick(&open)))
        }
    }
}

/// Predict an explicit-GPU job's attempt trajectory at submit time and
/// charge the predicted outcomes to the pool's health ledger. Because
/// injected faults and failover targets are pure functions of
/// `(job, device, attempt)`, this preview reaches the same verdicts the
/// run-time supervisor will — so the health ledger (and with it every
/// subsequent placement) advances in the submission sequence, never on
/// execution timing. Run-time attempts therefore charge *nothing*:
/// genuine (non-injected) faults only feed a telemetry counter.
pub(crate) fn preview_attempts(
    pool: &DevicePool,
    injector: &FaultInjector,
    id: u64,
    req: &SolveRequest,
    first: DeviceId,
    model: DeviceModel,
    qmask: u64,
) {
    let max = req.retry.attempts();
    let mut avoid = 0u64;
    let mut device = first;
    for attempt in 1..=max {
        let ok = injector.fault_for(id, Some(device.0), attempt).is_none();
        pool.note_outcome(device, ok);
        if ok || attempt >= max {
            return;
        }
        if device.0 < 64 {
            avoid |= 1 << device.0;
        }
        match next_attempt_device(
            pool,
            model,
            req.affinity,
            id,
            attempt + 1,
            avoid,
            qmask,
            req.retry.failover,
            device,
        ) {
            Some(AttemptTarget::Gpu(d)) => device = d,
            // Degraded to CPU (or out of targets): no further device
            // outcomes to charge.
            Some(AttemptTarget::Cpu) | Some(AttemptTarget::Resubmit) | None => return,
        }
    }
}

/// Is this error the retryable class (a panic or a transient device
/// fault), as opposed to a verdict no retry can change?
fn is_retryable(err: &EngineError) -> bool {
    matches!(err, EngineError::Failed { .. } | EngineError::Simt(SimtError::DeviceFault(_)))
}

/// Drive one job to a terminal outcome under its [`RetryPolicy`]:
/// run attempts, catch panics, reclassify watchdog expiries, release the
/// device slot after every attempt, and re-place retries via the pure
/// failover function. The default policy (`max_attempts = 1`, no
/// watchdog) makes this exactly one `run_attempt` with the job's own
/// deadline — the unsupervised engine.
pub(crate) fn run_supervised(
    shared: &Shared,
    id: u64,
    state: &Arc<JobState>,
    req: &SolveRequest,
) -> Result<SolveReport, EngineError> {
    let policy = req.retry;
    let max_attempts = policy.attempts();
    let mut faults: Vec<AttemptFault> = Vec::new();
    let mut avoid = 0u64;
    let mut force_cpu = state.degraded;
    let mut attempt: u32 = 1;
    loop {
        let attempt_start = Instant::now();
        let attempt_deadline = match (state.deadline, policy.watchdog) {
            (Some(job), Some(dog)) => Some(job.min(attempt_start + dog)),
            (Some(job), None) => Some(job),
            (None, Some(dog)) => Some(attempt_start + dog),
            (None, None) => None,
        };
        let ctx = job_ctx(shared, id, state, attempt_deadline);
        let entered_with = state.device_id();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(shared, id, state, req, &ctx, attempt, force_cpu)
        }));
        // The attempt may have bound a device mid-run (auto resolution):
        // capture it before releasing, then release whatever slot this
        // attempt held — entered with (device-queue admission) or
        // acquired itself — so slot accounting balances per attempt even
        // across panics.
        let device = state.device_id().or(entered_with);
        if let Some(d) = state.device_id() {
            shared.pool.release(d, attempt_start.elapsed());
        }
        state.clear_device();

        // A panic fails the attempt with the retryable class, and so does
        // the *watchdog* deadline (not the job's own, which is terminal):
        // a hung attempt's partial result is discarded.
        let failed = |message: String| EngineError::Failed {
            job: id,
            backend: attempt_backend_label(req, force_cpu),
            device,
            message,
        };
        let dogged = |stopped_early: bool| {
            policy.watchdog.is_some() && stopped_early && state.stop_reason().is_none()
        };
        let result = match result {
            Err(panic) => Err(failed(
                panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".into()),
            )),
            Ok(Ok(report)) if dogged(report.outcome == JobOutcome::DeadlineExpired) => {
                shared.metrics.watchdog_trips.inc();
                Err(failed(format!("attempt {attempt} exceeded its execution watchdog")))
            }
            Ok(Err(EngineError::DeadlineExpired)) if dogged(true) => {
                shared.metrics.watchdog_trips.inc();
                Err(failed(format!(
                    "attempt {attempt} exceeded its execution watchdog before any result"
                )))
            }
            Ok(other) => other,
        };

        let err = match result {
            Ok(mut report) => {
                report.attempts = attempt;
                report.faults = faults;
                return Ok(report);
            }
            Err(err) => err,
        };
        if !is_retryable(&err) {
            return Err(err);
        }

        // Record the failed attempt (report, trace, metrics). `injected`
        // is recomputed from the pure plan rather than threaded through
        // the error path — same inputs, same verdict.
        let injected = shared.injector.fault_for(id, device.map(|d| d.0), attempt);
        if injected.is_some() {
            shared.metrics.faults_injected.inc();
        } else if let Some(d) = device {
            // A genuine fault: telemetry only, never the health ledger
            // (which advances via the deterministic submit-time preview).
            shared.pool.note_fault_observed(d);
        }
        let error = err.to_string();
        if let Some(trace) = &state.trace {
            trace.record_attempt(attempt, device.map(|d| d.0), &error);
        }
        if let Some(journal) = &shared.journal {
            journal.record_attempt(
                shared.journal_ts_ms(),
                id,
                attempt,
                device.map(|d| d.0),
                &error,
            );
        }
        faults.push(AttemptFault {
            attempt,
            device,
            backend: attempt_backend_label(req, force_cpu),
            error,
            injected,
        });

        // Retry budget: attempts, cancellation, and the deadline-aware
        // check that another attempt could still start in time.
        if attempt >= max_attempts || state.cancel.is_cancelled() {
            return Err(err);
        }
        if let Some(deadline) = state.deadline {
            if Instant::now() + policy.backoff >= deadline {
                return Err(err);
            }
        }

        // Re-place via the pure failover function (the same one the
        // submit-time preview walked).
        if let Some(d) = device {
            if d.0 < 64 {
                avoid |= 1 << d.0;
            }
        }
        let target = match device {
            // CPU attempts retry as they ran (the request's own CPU
            // backend, or the fallback once degraded).
            _ if force_cpu => Some(AttemptTarget::Resubmit),
            None => Some(AttemptTarget::Resubmit),
            Some(failed) => match shared.pool.profile(failed).map(|p| p.model) {
                Some(model) => next_attempt_device(
                    &shared.pool,
                    model,
                    req.affinity,
                    id,
                    attempt + 1,
                    avoid,
                    state.qmask,
                    policy.failover,
                    failed,
                ),
                None => None,
            },
        };
        let Some(target) = target else {
            return Err(err);
        };
        shared.metrics.retries.inc();

        // Cancel-aware backoff.
        if policy.backoff > Duration::ZERO {
            let until = Instant::now() + policy.backoff;
            while Instant::now() < until {
                if state.cancel.is_cancelled() {
                    return Err(err);
                }
                std::thread::sleep(Duration::from_millis(1).min(policy.backoff));
            }
        }

        match target {
            AttemptTarget::Resubmit => {}
            AttemptTarget::Cpu => {
                shared.metrics.cpu_fallbacks.inc();
                force_cpu = true;
            }
            AttemptTarget::Gpu(d) => {
                if Some(d) != device {
                    shared.metrics.failovers.inc();
                }
                // Admit a slot on the retry's device, staying responsive
                // to cancellation and the job deadline.
                if wait_for_slot(&shared.pool, d, || state.stop_reason()).is_err() {
                    return Err(err);
                }
                state.set_device(d);
            }
        }
        attempt += 1;
    }
}

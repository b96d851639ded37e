//! Job-lifecycle plumbing shared by every colony: cancellation tokens,
//! deadlines, and iteration-best observation.
//!
//! The paper's colonies are fire-and-forget single solves; a serving
//! engine needs mid-flight observability. [`SolveCtx`] carries the three
//! lifecycle channels a long-running solve must honour:
//!
//! * a **cancellation token** ([`CancelToken`]) checked at every
//!   iteration boundary, so a `cancel()` from another thread stops the
//!   colony within one iteration;
//! * an optional **deadline** ([`std::time::Instant`]) checked at the
//!   same boundary;
//! * an **iteration observer** — a sink that receives one
//!   [`IterationEvent`] per completed iteration (iteration-best and
//!   best-so-far lengths), the raw material for progress streams.
//!
//! Every colony in this crate implements [`Colony`] — one iteration per
//! [`Colony::step`] — and runs under the one loop [`drive`], so the
//! check-record-emit protocol is identical across the sequential and
//! parallel CPU Ant System, ACS, MMAS, and the GPU Ant System and ACS.
//! Determinism: for a run that is never stopped, the emitted event
//! sequence is a pure function of the colony's inputs — wall-clock only
//! enters through the *optional* deadline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::SimtError;
use aco_tsp::Tour;

/// Shared cancellation flag. Clones observe the same flag; `cancel()` is
/// a release store, so a colony's next iteration-boundary check
/// (`is_cancelled`, an acquire load) sees it promptly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called (on this token or any
    /// clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a ctx-driven run stopped before completing all its iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The [`CancelToken`] fired.
    Cancelled,
    /// The deadline passed.
    DeadlineExpired,
}

/// One completed colony iteration, as seen by the observer sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// 0-based iteration index within this run.
    pub iteration: u64,
    /// Best tour length found in this iteration.
    pub iter_best: u64,
    /// Best tour length found so far (≤ `iter_best`).
    pub best_so_far: u64,
    /// Pool id of the simulated device the iteration ran on, for runs
    /// scheduled onto a device pool. Colonies themselves emit `None`
    /// (they do not know about pools); a pool-aware scheduler stamps the
    /// id in its observer before fanning the event out.
    pub device: Option<u32>,
    /// Search-dynamics statistics for this iteration. `None` unless the
    /// context asked for dynamics ([`SolveCtx::with_dynamics`]) *and*
    /// the colony computes them. Telemetry only — two runs differing
    /// solely in this field did identical solve work.
    pub stats: Option<aco_obs::IterationStats>,
}

/// The observer sink: called once per completed iteration, on the thread
/// running the colony. Implementations must be cheap and non-blocking —
/// they sit inside the solve hot loop.
pub type IterationObserver = dyn Fn(IterationEvent) + Send + Sync;

/// The context a ctx-driven solve runs under. Construct with the
/// builders; an empty `SolveCtx::new()` never stops and observes nothing,
/// which makes it a drop-in for the old fire-and-forget loops.
#[derive(Default)]
pub struct SolveCtx {
    cancel: CancelToken,
    deadline: Option<Instant>,
    observer: Option<Box<IterationObserver>>,
    trace: Option<Arc<aco_obs::JobTrace>>,
    dynamics: Option<aco_obs::DynamicsConfig>,
}

impl std::fmt::Debug for SolveCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCtx")
            .field("cancelled", &self.cancel.is_cancelled())
            .field("deadline", &self.deadline)
            .field("observed", &self.observer.is_some())
            .field("traced", &self.trace.is_some())
            .field("dynamics", &self.dynamics.is_some())
            .finish()
    }
}

impl SolveCtx {
    /// A context that never stops and observes nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: cancel this run when `token` fires.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Builder: stop the run at `deadline` (checked at iteration
    /// boundaries, like cancellation).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: send one [`IterationEvent`] per completed iteration to
    /// `observer`.
    pub fn with_observer(
        mut self,
        observer: impl Fn(IterationEvent) + Send + Sync + 'static,
    ) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Builder: record per-iteration phase spans (and, on the GPU paths,
    /// kernel-family profiles) into `trace`. Write-only telemetry: a
    /// traced run produces bit-identical results to an untraced one.
    pub fn with_trace(mut self, trace: Arc<aco_obs::JobTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder: compute per-iteration search-dynamics statistics (tour
    /// length distribution, trail entropy, λ-branching, stagnation)
    /// under `config` and attach them to every emitted
    /// [`IterationEvent`]. Write-only telemetry — results are
    /// bit-identical with or without it.
    pub fn with_dynamics(mut self, config: aco_obs::DynamicsConfig) -> Self {
        self.dynamics = Some(config);
        self
    }

    /// The dynamics configuration, if this run should compute search
    /// statistics. Colonies consult this to skip the `O(n²)`
    /// entropy/branching scans when nobody asked.
    pub fn dynamics(&self) -> Option<&aco_obs::DynamicsConfig> {
        self.dynamics.as_ref()
    }

    /// The cancellation token this context watches.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Should the run stop *now*? Cancellation outranks the deadline.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(StopReason::DeadlineExpired),
            _ => None,
        }
    }

    /// Deliver an event to the observer (no-op without one).
    pub fn emit(&self, event: IterationEvent) {
        if let Some(obs) = &self.observer {
            obs(event);
        }
    }
}

/// How a ctx-driven run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Iterations actually completed (≤ requested).
    pub iterations: usize,
    /// `None` if all requested iterations ran; otherwise why it stopped.
    pub stopped: Option<StopReason>,
    /// Modeled milliseconds of the completed iterations: the sum of each
    /// iteration's `(construction + pheromone) + local_search`.
    pub modeled_ms: f64,
}

impl RunOutcome {
    /// Did the run complete every requested iteration?
    pub fn completed(&self) -> bool {
        self.stopped.is_none()
    }
}

/// Modeled milliseconds of one iteration's phases, in the paper's split:
/// tour construction (choice refresh included), the optional local
/// search between the stages, and the pheromone update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMs {
    /// Tour construction, choice-info refresh included.
    pub construction: f64,
    /// The per-iteration local search (0 without one).
    pub local_search: f64,
    /// The pheromone update.
    pub pheromone: f64,
}

/// One completed iteration, as a colony reports it to [`drive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Best tour length found in this iteration.
    pub iter_best: u64,
    /// Best tour length found so far.
    pub best_so_far: u64,
    /// The iteration's tour-length distribution and trail statistics;
    /// `None` unless the context asked for dynamics
    /// ([`SolveCtx::dynamics`] gates the `O(n²)` scans).
    pub raw_dynamics: Option<aco_obs::RawDynamics>,
    /// Modeled cost of the iteration's phases.
    pub phase_ms: PhaseMs,
}

/// The contract every colony implements: one ACO iteration (construction,
/// optional local search, pheromone update) per [`Colony::step`], plus
/// the configuration and results [`drive`] and the engine need. The
/// sequential, parallel, ACS and MMAS colonies on the CPU and the Ant
/// System and ACS on the simulated GPU all implement it, so one loop
/// drives them all.
pub trait Colony {
    /// Run iteration `k` (0-based within this run) and report it. Only
    /// the simulated GPU colonies can fail (a rejected kernel launch).
    fn step(&mut self, k: u64, ctx: &SolveCtx) -> Result<Step, SimtError>;

    /// Best tour found so far, with its exact length.
    fn best(&self) -> Option<(&Tour, u64)>;

    /// Configure the per-iteration local search: `ls` runs on the tours
    /// `scope` selects, after construction and before the pheromone
    /// update. [`LocalSearch::PostPass`] does nothing here (it is an
    /// engine-level polish).
    fn set_local_search(&mut self, ls: LocalSearch, scope: LsScope);

    /// Tour-length reduction the per-iteration local search has
    /// contributed so far.
    fn local_search_improvement(&self) -> u64;

    /// Stagnation restarts fired so far (only MMAS restarts).
    fn restarts(&self) -> u64 {
        0
    }

    /// Host threads the simulator may spread blocks over. Results are
    /// thread-count invariant; CPU colonies ignore it.
    fn set_exec_threads(&mut self, _threads: usize) {}

    /// Attach the engine's idle-worker donation counter (see
    /// [`crate::gpu::MAX_DONATED_THREADS`]); CPU colonies ignore it.
    fn set_thread_donor(&mut self, _donor: Arc<AtomicUsize>) {}
}

/// The one iteration loop every colony runs under. Before each
/// iteration it consults [`SolveCtx::stop_reason`]; after it, it records
/// the iteration's phase spans into the context's trace, folds the
/// colony's raw dynamics into [`aco_obs::IterationStats`] (one
/// [`DynamicsTracker`](aco_obs::DynamicsTracker) per run, so improvement
/// deltas and the stagnation detector behave the same for every colony),
/// emits the [`IterationEvent`] and adds the iteration's modeled
/// milliseconds to the outcome. A step error aborts the loop without
/// emitting.
pub fn drive<C: Colony + ?Sized>(
    colony: &mut C,
    iterations: usize,
    ctx: &SolveCtx,
) -> Result<RunOutcome, SimtError> {
    let mut tracker = ctx.dynamics.map(aco_obs::DynamicsTracker::new);
    let mut modeled_ms = 0.0;
    for k in 0..iterations {
        if let Some(reason) = ctx.stop_reason() {
            return Ok(RunOutcome { iterations: k, stopped: Some(reason), modeled_ms });
        }
        let Step { iter_best, best_so_far, raw_dynamics, phase_ms } = colony.step(k as u64, ctx)?;
        let PhaseMs { construction, local_search, pheromone } = phase_ms;
        if let Some(trace) = &ctx.trace {
            trace.record_iteration(k as u64, construction, local_search, pheromone);
        }
        modeled_ms += (construction + pheromone) + local_search;
        let stats = match (&mut tracker, raw_dynamics) {
            (Some(t), Some(raw)) => Some(t.observe(best_so_far, raw)),
            _ => None,
        };
        ctx.emit(IterationEvent {
            iteration: k as u64,
            iter_best,
            best_so_far,
            device: None,
            stats,
        });
    }
    Ok(RunOutcome { iterations, stopped: None, modeled_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A colony whose iterations come from a closure.
    struct FnColony<F>(F);

    impl<F: FnMut(u64) -> Result<Step, SimtError>> Colony for FnColony<F> {
        fn step(&mut self, k: u64, _ctx: &SolveCtx) -> Result<Step, SimtError> {
            (self.0)(k)
        }

        fn best(&self) -> Option<(&Tour, u64)> {
            None
        }

        fn set_local_search(&mut self, _ls: LocalSearch, _scope: LsScope) {}

        fn local_search_improvement(&self) -> u64 {
            0
        }
    }

    fn step(best: u64) -> Step {
        let phase_ms = PhaseMs { construction: 1.0, local_search: 0.5, pheromone: 2.0 };
        Step { iter_best: best, best_so_far: best, raw_dynamics: None, phase_ms }
    }

    fn run(iterations: usize, ctx: &SolveCtx, mut f: impl FnMut(u64) -> Step) -> RunOutcome {
        drive(&mut FnColony(|k| Ok(f(k))), iterations, ctx).expect("infallible steps")
    }

    #[test]
    fn empty_ctx_runs_to_completion_and_sums_modeled_ms() {
        let ctx = SolveCtx::new();
        let out = run(5, &ctx, |k| step(100 - k));
        assert_eq!(out, RunOutcome { iterations: 5, stopped: None, modeled_ms: 17.5 });
        assert!(out.completed());
    }

    #[test]
    fn cancel_stops_at_the_next_iteration_boundary() {
        let token = CancelToken::new();
        let ctx = SolveCtx::new().with_cancel(token.clone());
        let cancel_at = 3u64;
        let out = run(10, &ctx, |k| {
            if k + 1 == cancel_at {
                token.cancel();
            }
            step(50)
        });
        assert_eq!(out.iterations, cancel_at as usize);
        assert_eq!(out.stopped, Some(StopReason::Cancelled));
        assert_eq!(out.modeled_ms, 3.0 * 3.5, "only completed iterations are priced");
    }

    #[test]
    fn expired_deadline_stops_before_the_first_iteration() {
        let ctx = SolveCtx::new().with_deadline(Instant::now());
        let out = run(4, &ctx, |_| unreachable!("deadline already passed"));
        assert_eq!(out.iterations, 0);
        assert_eq!(out.stopped, Some(StopReason::DeadlineExpired));
    }

    #[test]
    fn observer_sees_every_iteration_in_order() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let ctx = SolveCtx::new().with_observer(move |ev| {
            assert_eq!(ev.iteration, seen2.load(Ordering::SeqCst));
            assert_eq!(ev.iter_best, ev.iteration + 10);
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        let out = run(6, &ctx, |k| step(k + 10));
        assert!(out.completed());
        assert_eq!(seen.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn trace_gets_one_span_per_iteration() {
        let trace = Arc::new(aco_obs::JobTrace::new(7, 16));
        let ctx = SolveCtx::new().with_trace(Arc::clone(&trace));
        run(3, &ctx, step);
        let spans = trace.snapshot().iterations;
        assert_eq!(spans.len(), 3);
        for (k, s) in spans.iter().enumerate() {
            assert_eq!(s.iteration, k as u64);
            assert_eq!((s.construction_ms, s.local_search_ms, s.pheromone_ms), (1.0, 0.5, 2.0));
        }
    }

    #[test]
    fn dynamics_ctx_attaches_stats_to_events() {
        use aco_obs::{DynamicsConfig, RawDynamics};
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let ctx = SolveCtx::new()
            .with_dynamics(DynamicsConfig::default().window(2).entropy_floor(0.0))
            .with_observer(move |ev| seen2.lock().unwrap().push(ev));
        let out = run(4, &ctx, |k| {
            let best = 100 - k.min(1) * 10; // one improvement at k = 1, then flat
            let raw =
                RawDynamics { mean_len: best as f64 + 5.0, entropy: 0.9, ..Default::default() };
            Step { raw_dynamics: Some(raw), ..step(best) }
        });
        assert!(out.completed());
        let evs = seen.lock().expect("events");
        assert_eq!(evs.len(), 4);
        let s1 = evs[1].stats.expect("stats attached");
        assert_eq!(s1.improvement, 10);
        assert_eq!(s1.stagnant_iterations, 0);
        let s3 = evs[3].stats.expect("stats attached");
        assert_eq!(s3.stagnant_iterations, 2);
        assert!(s3.stagnant, "2 flat iterations hit the window of 2");
        assert!((s3.mean_len - 95.0).abs() < 1e-12);
    }

    #[test]
    fn steps_without_raw_dynamics_emit_no_stats() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let ctx = SolveCtx::new()
            .with_dynamics(aco_obs::DynamicsConfig::default())
            .with_observer(move |ev| seen2.lock().unwrap().push(ev));
        run(2, &ctx, |_| step(7));
        assert!(seen.lock().expect("events").iter().all(|ev| ev.stats.is_none()));
    }

    #[test]
    fn step_errors_abort_the_run() {
        let ctx = SolveCtx::new();
        let mut colony =
            FnColony(
                |k| {
                    if k == 1 {
                        Err(SimtError::DeviceFault("boom".into()))
                    } else {
                        Ok(step(1))
                    }
                },
            );
        assert_eq!(drive(&mut colony, 3, &ctx), Err(SimtError::DeviceFault("boom".into())));
    }
}

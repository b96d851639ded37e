//! Jobs and their reports, and the one path every backend is solved on.
//!
//! The paper benchmarks each parallelisation strategy in isolation; a
//! production engine needs them interchangeable. One [`SolveRequest`] names
//! an instance, parameters and a [`Backend`]; [`build_solver`] turns the
//! resolved backend into a boxed [`Colony`] with its local search and
//! device binding configured, and [`solve`] runs it under the one
//! [`drive`] loop of [`aco_core::lifecycle`] — which checks cancellation
//! and deadlines at every iteration boundary, records the trace spans,
//! folds the search dynamics, emits the iteration-best events and sums
//! the modeled milliseconds — and assembles the [`SolveReport`].
//!
//! Every backend is deterministic in the request seed: given the same
//! `SolveRequest`, an uncancelled `solve` produces a bit-identical
//! [`SolveReport`] — and an identical iteration-event sequence — no matter
//! which engine worker runs it or how many workers exist.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

use aco_core::cpu::{AcsParams, AntColonySystem, MaxMinAntSystem, MmasParams, ParallelAntSystem};
use aco_core::gpu::{GpuAntColonySystem, GpuAntSystem, PheromoneStrategy, TourStrategy};
use aco_core::lifecycle::{drive, Colony, SolveCtx, StopReason};
use aco_core::{AcoParams, AntSystem, TourPolicy};
use aco_devices::{DeviceAffinity, DeviceId, DeviceModel, PlacementError};
use aco_localsearch::{LocalSearch, LsScope};
use aco_simt::{DeviceSpec, SimtError};
use aco_tsp::{Tour, TspInstance};

use crate::cache::InstanceArtifacts;

/// Errors a solve job can end with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The simulated device rejected a kernel launch.
    Simt(SimtError),
    /// The device pool rejected the job's placement at submit time
    /// (unknown / incompatible pinned device, or no compatible device in
    /// the pool). The job never queues and never touches any cache.
    Placement(PlacementError),
    /// The job produced no solution (e.g. zero iterations requested).
    NoSolution,
    /// The job was cancelled before it produced any result (while queued,
    /// or before its first iteration completed). A job cancelled *after*
    /// at least one iteration instead reports `Ok` with
    /// [`JobOutcome::Cancelled`] and its partial best.
    Cancelled,
    /// The job's deadline expired before it produced any result; after at
    /// least one iteration it reports [`JobOutcome::DeadlineExpired`].
    DeadlineExpired,
    /// The job panicked or exhausted its retry budget; the payload
    /// carries the failing attempt's context so batch logs are
    /// actionable without a timeline lookup.
    Failed {
        /// The failing job's id.
        job: u64,
        /// Label of the backend the failing attempt ran.
        backend: String,
        /// The device the failing attempt ran on (None for CPU).
        device: Option<DeviceId>,
        /// The panic payload or terminal error message.
        message: String,
    },
    /// `Engine::wait` was given an id this engine never issued, or one
    /// whose result was already claimed by an earlier `wait`.
    UnknownJob,
}

impl From<SimtError> for EngineError {
    fn from(e: SimtError) -> Self {
        EngineError::Simt(e)
    }
}

impl From<PlacementError> for EngineError {
    fn from(e: PlacementError) -> Self {
        EngineError::Placement(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Simt(e) => write!(f, "device error: {e}"),
            EngineError::Placement(e) => write!(f, "placement rejected: {e}"),
            EngineError::NoSolution => write!(f, "job finished without a solution"),
            EngineError::Cancelled => write!(f, "job cancelled before any result"),
            EngineError::DeadlineExpired => write!(f, "job deadline expired before any result"),
            EngineError::Failed { job, backend, device, message } => match device {
                Some(d) => write!(f, "job {job} failed on {backend} ({d}): {message}"),
                None => write!(f, "job {job} failed on {backend}: {message}"),
            },
            EngineError::UnknownJob => write!(f, "unknown or already-claimed job id"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The simulated devices a GPU backend can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuDevice {
    /// Tesla C1060 (CC 1.3, the paper's primary device).
    TeslaC1060,
    /// Tesla M2050 (Fermi, CC 2.0).
    TeslaM2050,
}

impl GpuDevice {
    /// Both devices, in the paper's order.
    pub const ALL: [GpuDevice; 2] = [GpuDevice::TeslaC1060, GpuDevice::TeslaM2050];

    /// The full device model.
    pub fn spec(self) -> DeviceSpec {
        match self {
            GpuDevice::TeslaC1060 => DeviceSpec::tesla_c1060(),
            GpuDevice::TeslaM2050 => DeviceSpec::tesla_m2050(),
        }
    }

    /// The pool-level hardware generation this names.
    pub fn model(self) -> DeviceModel {
        match self {
            GpuDevice::TeslaC1060 => DeviceModel::TeslaC1060,
            GpuDevice::TeslaM2050 => DeviceModel::TeslaM2050,
        }
    }

    /// The [`GpuDevice`] naming a pool model (the enums are isomorphic;
    /// `GpuDevice` is the backend-facing name, `DeviceModel` the
    /// pool-facing one).
    pub fn from_model(model: DeviceModel) -> GpuDevice {
        match model {
            DeviceModel::TeslaC1060 => GpuDevice::TeslaC1060,
            DeviceModel::TeslaM2050 => GpuDevice::TeslaM2050,
        }
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            GpuDevice::TeslaC1060 => "c1060",
            GpuDevice::TeslaM2050 => "m2050",
        }
    }
}

/// Which solver implementation a job runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The sequential ACOTSP-style Ant System (the paper's baseline).
    CpuSequential {
        /// Construction rule.
        policy: TourPolicy,
    },
    /// The multi-threaded CPU colony (per-ant decorrelated streams;
    /// results are independent of `threads`).
    CpuParallel {
        /// Construction rule.
        policy: TourPolicy,
        /// Worker threads for construction.
        threads: usize,
    },
    /// Ant Colony System on the CPU.
    CpuAcs(AcsParams),
    /// MAX-MIN Ant System on the CPU.
    CpuMmas(MmasParams),
    /// Both ACO phases on a simulated GPU, any Table II × Table III/IV
    /// strategy combination.
    Gpu {
        /// Target device.
        device: GpuDevice,
        /// Tour-construction kernel (Table II row).
        tour: TourStrategy,
        /// Pheromone-update kernel (Table III/IV row).
        pheromone: PheromoneStrategy,
    },
    /// Ant Colony System on a simulated GPU.
    GpuAcs {
        /// Target device.
        device: GpuDevice,
        /// ACS-specific knobs.
        acs: AcsParams,
    },
    /// Let the engine pick the fastest backend for this instance using the
    /// analytic cost models (see [`crate::auto`]).
    Auto,
}

impl Backend {
    /// The device model this backend must be placed on, or `None` for
    /// CPU backends and for [`Backend::Auto`] (whose need is only known
    /// once resolved).
    pub fn required_model(&self) -> Option<DeviceModel> {
        match self {
            Backend::Gpu { device, .. } | Backend::GpuAcs { device, .. } => Some(device.model()),
            _ => None,
        }
    }

    /// Human-readable label (stable; used in reports and benchmarks).
    pub fn label(&self) -> String {
        match self {
            Backend::CpuSequential { policy } => format!("cpu-seq/{policy:?}"),
            Backend::CpuParallel { policy, threads } => format!("cpu-par{threads}/{policy:?}"),
            Backend::CpuAcs(_) => "cpu-acs".into(),
            Backend::CpuMmas(_) => "cpu-mmas".into(),
            Backend::Gpu { device, tour, pheromone } => {
                format!("gpu-{}/{tour:?}+{pheromone:?}", device.label())
            }
            Backend::GpuAcs { device, .. } => format!("gpu-acs-{}", device.label()),
            Backend::Auto => "auto".into(),
        }
    }
}

/// Scheduling priority of a job. Higher priorities are popped first;
/// within a priority class jobs run in submission order. Queued jobs can
/// be re-prioritised mid-flight via `JobHandle::set_priority`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: runs when nothing more urgent is queued.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Jumps ahead of every queued `Normal`/`Low` job.
    High,
}

impl Priority {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Priority {
        match v {
            0 => Priority::Low,
            2 => Priority::High,
            _ => Priority::Normal,
        }
    }
}

/// Default bound of a job's progress-event buffer (events, not bytes).
pub const DEFAULT_PROGRESS_EVENTS: usize = 1024;

/// Where a failed attempt's retry is allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Failover {
    /// Retry on the device the failed attempt used (or the same CPU
    /// backend). The conservative choice for debugging a flaky kernel.
    Same,
    /// Re-place each retry onto a compatible device *other than* the ones
    /// that already failed this job (wrapping back to them only when no
    /// alternative exists). Pinned jobs never move — a pin is a contract,
    /// so their retries stay in place.
    #[default]
    HealthyDevice,
    /// Like `HealthyDevice`, but when no healthy compatible device
    /// remains (or a pinned device failed), degrade gracefully to the CPU
    /// reference backend instead of failing the job.
    CpuFallback,
}

/// Supervised-retry policy of one job. The default (`max_attempts = 1`)
/// is exactly the pre-retry engine: one attempt, no watchdog, failures
/// surface immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first run included; clamped to ≥ 1). Retries stop
    /// early when the remaining deadline budget cannot fit another
    /// attempt.
    pub max_attempts: u32,
    /// Pause between attempts. Deadline-aware: a retry that could not
    /// start before the job deadline is not attempted.
    pub backoff: Duration,
    /// Where retries run.
    pub failover: Failover,
    /// Per-attempt execution watchdog, measured from the attempt's start
    /// (distinct from the job deadline, which is measured from
    /// submission): an attempt exceeding it is treated as a hung device
    /// and retried. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No supervision: one attempt, failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            failover: Failover::HealthyDevice,
            watchdog: None,
        }
    }

    /// `retries` retries on top of the first attempt, no backoff, default
    /// failover.
    pub fn retries(retries: u32) -> Self {
        RetryPolicy { max_attempts: retries.saturating_add(1), ..RetryPolicy::none() }
    }

    /// Builder: pause between attempts.
    pub fn backoff(mut self, pause: Duration) -> Self {
        self.backoff = pause;
        self
    }

    /// Builder: where retries run.
    pub fn failover(mut self, f: Failover) -> Self {
        self.failover = f;
        self
    }

    /// Builder: per-attempt execution watchdog.
    pub fn watchdog(mut self, budget: Duration) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// The attempt budget with the ≥ 1 clamp applied.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// One failed attempt of a supervised job, as recorded in
/// [`SolveReport::faults`] (and in the observability timeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFault {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The device the attempt ran on (`None` for CPU).
    pub device: Option<DeviceId>,
    /// Label of the backend the attempt ran.
    pub backend: String,
    /// The error that ended the attempt.
    pub error: String,
    /// The fault the injection plan scheduled for this attempt, if fault
    /// injection is armed (genuine faults leave this `None`).
    pub injected: Option<aco_faults::FaultKind>,
}

/// One solve job.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The instance to solve (shared, immutable).
    pub instance: Arc<TspInstance>,
    /// ACO parameters (α, β, ρ, m, NN depth, seed).
    pub params: AcoParams,
    /// Backend to run, or [`Backend::Auto`].
    pub backend: Backend,
    /// Iterations to run.
    pub iterations: usize,
    /// Optional seed override; when set it replaces `params.seed`, so one
    /// request template can fan out over seeds.
    pub seed: Option<u64>,
    /// Initial scheduling priority.
    pub priority: Priority,
    /// Local search for this job: a per-iteration strategy every colony
    /// runs at its iteration boundaries (GPU colonies execute
    /// [`LocalSearch::TwoOptNn`] as a simulated kernel family), or
    /// [`LocalSearch::PostPass`] for the legacy end-of-run polish.
    /// Deterministic and never worsening either way.
    pub local_search: LocalSearch,
    /// Which tours the per-iteration strategy improves (iteration-best
    /// by default; [`LsScope::AllAnts`] for the full ACOTSP hybrid).
    pub ls_scope: LsScope,
    /// Optional wall-clock budget, measured from submission (queue time
    /// included). An expired job stops at its next iteration boundary and
    /// reports [`JobOutcome::DeadlineExpired`].
    pub timeout: Option<Duration>,
    /// Bound of this job's progress-event buffer; once full, the oldest
    /// events are dropped (and counted) so the solver never blocks on a
    /// slow consumer.
    pub progress_events: usize,
    /// Where in the device pool the job may run. `Any` (the default)
    /// lets the pool pick the least-loaded compatible device; `Pinned`
    /// is honoured exactly or rejected at submit with
    /// [`EngineError::Placement`]. Ignored by CPU backends except that a
    /// pinned affinity on a CPU job is a typed error (the job will never
    /// run on a device).
    pub affinity: DeviceAffinity,
    /// Supervised-retry policy. The default ([`RetryPolicy::none`]) is
    /// one attempt with no watchdog — exactly the unsupervised engine.
    pub retry: RetryPolicy,
}

impl SolveRequest {
    /// A request with library defaults: auto backend, 10 iterations,
    /// normal priority, no local search, no deadline.
    pub fn new(instance: Arc<TspInstance>, params: AcoParams) -> Self {
        SolveRequest {
            instance,
            params,
            backend: Backend::Auto,
            iterations: 10,
            seed: None,
            priority: Priority::Normal,
            local_search: LocalSearch::None,
            ls_scope: LsScope::IterationBest,
            timeout: None,
            progress_events: DEFAULT_PROGRESS_EVENTS,
            affinity: DeviceAffinity::Any,
            retry: RetryPolicy::none(),
        }
    }

    /// Builder: backend.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Builder: iteration count.
    pub fn iterations(mut self, iters: usize) -> Self {
        self.iterations = iters;
        self
    }

    /// Builder: seed override.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = Some(s);
        self
    }

    /// Builder: initial scheduling priority.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder: local-search strategy.
    pub fn local_search(mut self, ls: LocalSearch) -> Self {
        self.local_search = ls;
        self
    }

    /// Builder: which tours the per-iteration strategy improves.
    pub fn local_search_scope(mut self, scope: LsScope) -> Self {
        self.ls_scope = scope;
        self
    }

    /// Builder: wall-clock budget from submission.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Builder: progress-event buffer bound (clamped to ≥ 1).
    pub fn progress_events(mut self, events: usize) -> Self {
        self.progress_events = events.max(1);
        self
    }

    /// Builder: device affinity.
    pub fn affinity(mut self, affinity: DeviceAffinity) -> Self {
        self.affinity = affinity;
        self
    }

    /// Builder: supervised-retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The seed this request actually runs with.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(self.params.seed)
    }
}

/// How a job's lifecycle ended (recorded in every [`SolveReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOutcome {
    /// Every requested iteration ran.
    Completed,
    /// Cancelled mid-flight; `best_tour`/`iterations` reflect the work
    /// done before the cancellation check stopped the colony.
    Cancelled,
    /// The deadline expired mid-flight; partial results as above.
    DeadlineExpired,
}

impl From<Option<StopReason>> for JobOutcome {
    fn from(stopped: Option<StopReason>) -> Self {
        match stopped {
            None => JobOutcome::Completed,
            Some(StopReason::Cancelled) => JobOutcome::Cancelled,
            Some(StopReason::DeadlineExpired) => JobOutcome::DeadlineExpired,
        }
    }
}

/// The outcome of one solve job.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Instance name.
    pub instance: String,
    /// Instance size.
    pub n: usize,
    /// The backend that actually ran (never [`Backend::Auto`]).
    pub backend: Backend,
    /// Best tour found.
    pub best_tour: Tour,
    /// Exact integer length of `best_tour`.
    pub best_len: u64,
    /// Iterations executed.
    pub iterations: usize,
    /// Modeled milliseconds the run would have cost on the target hardware
    /// (CPU cost model or the simulator's kernel-time estimates — the same
    /// clocks the paper's speed-up figures use).
    pub modeled_ms: f64,
    /// The seed the job ran with.
    pub seed: u64,
    /// How the job's lifecycle ended; anything but
    /// [`JobOutcome::Completed`] means `iterations` is a partial count.
    pub outcome: JobOutcome,
    /// Pool id of the simulated device the job ran on (`None` for CPU
    /// backends). Deterministic: a fixed batch on a fixed pool reports
    /// identical device ids at any worker count.
    pub device: Option<DeviceId>,
    /// Total tour-length reduction attributable to local search — the
    /// per-iteration passes inside the colony plus the engine's
    /// [`LocalSearch::PostPass`] polish. 0 when no local search ran.
    pub local_search_improvement: u64,
    /// Stagnation restarts the colony fired during the run (trail
    /// re-initialisations after `restart_after` unimproved iterations).
    /// Only MMAS restarts today; every other backend reports 0.
    pub restarts: u64,
    /// Attempts the supervisor ran to produce this report (1 without
    /// retries: the unsupervised engine reports exactly 1).
    pub attempts: u32,
    /// The failed attempts that preceded this result, oldest first
    /// (empty when the first attempt succeeded).
    pub faults: Vec<AttemptFault>,
}

/// The error a job stopped before it had any result fails with.
pub(crate) fn stop_error(reason: StopReason) -> EngineError {
    match reason {
        StopReason::Cancelled => EngineError::Cancelled,
        StopReason::DeadlineExpired => EngineError::DeadlineExpired,
    }
}

/// Drive `colony` for up to `iterations` iterations under `ctx`
/// ([`drive`]) and assemble its report. A run stopped before its first
/// completed iteration has no solution to report and fails with
/// [`EngineError::Cancelled`] / [`EngineError::DeadlineExpired`] (or
/// [`EngineError::NoSolution`] for a zero-iteration request); otherwise
/// the partial best is reported with the matching [`JobOutcome`].
/// `instance`, `n` and `device` are left for the caller, which owns the
/// instance and the placement.
pub fn solve(
    colony: &mut dyn Colony,
    backend: Backend,
    iterations: usize,
    seed: u64,
    ctx: &SolveCtx,
) -> Result<SolveReport, EngineError> {
    let outcome = drive(colony, iterations, ctx)?;
    let Some((best_tour, best_len)) = colony.best() else {
        return Err(outcome.stopped.map_or(EngineError::NoSolution, stop_error));
    };
    Ok(SolveReport {
        instance: String::new(),
        n: best_tour.n(),
        backend,
        best_tour: best_tour.clone(),
        best_len,
        iterations: outcome.iterations,
        modeled_ms: outcome.modeled_ms,
        seed,
        outcome: outcome.stopped.into(),
        device: None,
        local_search_improvement: colony.local_search_improvement(),
        restarts: colony.restarts(),
        attempts: 1, // the supervisor overwrites this on retried jobs
        faults: Vec::new(),
    })
}

/// How a GPU colony is bound to a concrete pool device: the profile's
/// derived spec (which may rescale the Table-I preset) and its
/// exec-thread budget. Without a binding, GPU backends fall back to the
/// model's unmodified preset on one exec thread — the pre-pool behaviour,
/// kept for standalone `build_solver` use.
#[derive(Debug, Clone)]
pub struct GpuBinding {
    /// The spec the colony executes with.
    pub spec: DeviceSpec,
    /// Host threads donated to block-level simulation.
    pub exec_threads: usize,
    /// Live count of idle engine workers parked on the ready condvar
    /// (present when `EngineConfig::donate_idle_threads` is on). The
    /// colony adds `min(count, MAX_DONATED_THREADS)` threads to each
    /// launch while peers are idle; simulator results are thread-count
    /// invariant, so reports stay bit-identical either way.
    pub donated: Option<Arc<AtomicUsize>>,
}

/// Build the colony of a **resolved** backend (callers resolve
/// [`Backend::Auto`] first — see [`crate::auto::resolve`]), optionally
/// bound to a pool device profile, with `local_search` configured into
/// its iteration loop (`scope` picks the tours it improves;
/// [`LocalSearch::PostPass`] is applied by the engine after the run, not
/// here).
///
/// # Panics
/// Panics if `backend` is [`Backend::Auto`].
pub fn build_solver<'a>(
    backend: &Backend,
    inst: &'a TspInstance,
    params: &AcoParams,
    artifacts: &InstanceArtifacts,
    gpu: Option<GpuBinding>,
    local_search: LocalSearch,
    scope: LsScope,
) -> Box<dyn Colony + 'a> {
    let (nn, c_nn) = (&artifacts.nn, artifacts.c_nn);
    let ant_system = |policy: TourPolicy| {
        AntSystem::with_artifacts(inst, params.clone(), Arc::clone(nn), c_nn).with_policy(policy)
    };
    let spec = |device: &GpuDevice| gpu.as_ref().map_or_else(|| device.spec(), |b| b.spec.clone());
    let mut colony: Box<dyn Colony + 'a> = match backend {
        Backend::CpuSequential { policy } => Box::new(ant_system(*policy)),
        Backend::CpuParallel { policy, threads } => {
            Box::new(ParallelAntSystem::new(ant_system(*policy), *threads))
        }
        Backend::CpuAcs(acs) => Box::new(AntColonySystem::with_artifacts(
            inst,
            params.clone(),
            *acs,
            Arc::clone(nn),
            c_nn,
        )),
        Backend::CpuMmas(mmas) => Box::new(MaxMinAntSystem::with_artifacts(
            inst,
            params.clone(),
            *mmas,
            Arc::clone(nn),
            c_nn,
        )),
        Backend::Gpu { device, tour, pheromone } => Box::new(GpuAntSystem::with_artifacts(
            inst,
            params.clone(),
            spec(device),
            *tour,
            *pheromone,
            nn,
            c_nn,
        )),
        Backend::GpuAcs { device, acs } => Box::new(GpuAntColonySystem::with_artifacts(
            inst,
            params.clone(),
            *acs,
            spec(device),
            nn,
            c_nn,
        )),
        Backend::Auto => panic!("Backend::Auto must be resolved before build_solver"),
    };
    if let Some(binding) = gpu {
        colony.set_exec_threads(binding.exec_threads);
        if let Some(donor) = binding.donated {
            colony.set_thread_donor(donor);
        }
    }
    colony.set_local_search(local_search, scope);
    colony
}

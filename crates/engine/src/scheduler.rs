//! The batch engine: a priority-aware, device-aware work-stealing worker
//! pool over solve jobs with full lifecycle control.
//!
//! CPU jobs are distributed round-robin over per-worker **priority
//! queues** at submission; GPU jobs are *placed* onto a simulated device
//! of the engine's [`DevicePool`] at submit time (affinity-aware,
//! least-loaded by predicted completion — see [`aco_devices`]) and queue
//! on that device's own priority run queue. A worker pops the
//! highest-priority (then oldest) job from its own queue, then services
//! the device queues (admission gated by each device's resident-job slot
//! budget), then steals from its peers — so a long simulation on one
//! worker never starves the rest of the batch, and GPU work only ever
//! executes on the device it was placed on.
//! [`Engine::submit`] returns a [`JobHandle`] carrying the job's whole
//! lifecycle surface: non-blocking [`JobHandle::poll`], blocking
//! [`JobHandle::wait`], a bounded [`JobHandle::progress`] event stream,
//! [`JobHandle::cancel`], and [`JobHandle::set_priority`].
//!
//! **Cancellation.** A cancelled job that has not started is finalised
//! immediately (its queue entry becomes a no-op when popped); a running
//! job observes the token at its colony's next iteration boundary and
//! reports its partial best with a `Cancelled` outcome. Either way the
//! result slot is delivered exactly once and the artifact cache is left
//! untouched — cache cells are only ever filled with completed values.
//!
//! **Re-prioritisation.** `set_priority` updates the job's priority
//! atomically and restamps its entry in the owning heap (an O(queue)
//! rebuild — re-prioritisation is rare, pops are not). The pop path
//! additionally reconciles any stale stamp it sees, but that is only a
//! backstop for the store/restamp race: lazy reconciliation alone could
//! never raise a buried low-stamped entry to the top.
//!
//! **Backpressure.** Each job's progress buffer is bounded
//! (`SolveRequest::progress_events`): the solving worker never blocks on
//! a slow consumer — once the buffer is full, the *oldest* event is
//! dropped and counted, and the newest kept, so a late reader always
//! sees the most recent convergence state. The running drop count is
//! observable per job via [`JobHandle::progress_dropped`] (equivalently
//! [`ProgressStream::dropped`]) and engine-wide via the
//! `aco_engine_progress_dropped_total` counter. Consumers that need the
//! *complete* sequence must size the buffer to the iteration count (or
//! drain concurrently); a dropped event is gone — the stream trades
//! completeness for a never-blocking solver.
//!
//! **Observability.** With [`EngineConfig::observability`] on (the
//! default), the engine owns an [`aco_obs::Obs`] hub: scheduler counters
//! and latency histograms (queue depth, steal counts, admission-wait
//! bouts, submit→start and submit→first-event), a per-job
//! [`aco_obs::JobTrace`] threaded through the solve (retrievable live or
//! finished via [`JobHandle::timeline`], retained in a bounded sink via
//! [`Engine::recent_timelines`]), and the SIMT kernel-profiling hook
//! installed around every job so GPU kernel families report invocation
//! counts and modeled ms. Export everything with [`Engine::metrics`].
//! Instrumentation is write-only: it never feeds back into scheduling or
//! solving, so obs-on/off runs are bit-identical (see below); disabled,
//! every handle is an unarmed branch and no trace is allocated.
//!
//! **Determinism.** Scheduling affects only *where* and *when* a job
//! runs, never its inputs: every job derives its RNG streams from its own
//! request seed, the artifact cache stores values that are pure functions
//! of the instance, `auto` decisions are deterministic in the instance,
//! parameters and allowed candidate set, and device placement is decided
//! in the submission sequence (explicit GPU jobs) or as a pure function
//! of the job id (auto-resolved GPU jobs) — never from completion timing.
//! Consequently an uncancelled batch produces bit-identical
//! [`SolveReport`]s — including device assignments — and bit-identical
//! progress event sequences for any worker count *and either
//! observability setting*; pinned by the
//! `engine_results_do_not_depend_on_worker_count`, `tests/lifecycle.rs`,
//! `tests/devices.rs` and `tests/observability.rs` suites.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aco_core::lifecycle::{CancelToken, IterationEvent, SolveCtx};
use aco_core::TourPolicy;
use aco_devices::{
    DeviceAffinity, DeviceId, DeviceModel, DevicePool, DeviceProfile, DeviceSnapshot, HealthPolicy,
    Placement, PlacementError, PlacementStrategy,
};
use aco_faults::{FaultInjector, FaultKind, FaultPlan};
use aco_obs::{
    default_slos, sparkline, AlertState, Clock, Counter, Gauge, Histogram, JobTimeline, JobTrace,
    KernelSink, MetricsSnapshot, MonotonicClock, Obs, RollingWindow, SloBoard, SloSpec, SloStatus,
    WindowConfig, WindowStats, LATENCY_BUCKETS_MS,
};
use aco_simt::SimtError;

use crate::auto;
use crate::cache::{ArtifactCache, CacheStats};
use crate::solver::{
    build_solver, solve, AttemptFault, Backend, EngineError, Failover, GpuBinding, JobOutcome,
    Priority, SolveReport, SolveRequest,
};

/// The pool an [`EngineConfig`] builds by default: one unmodified device
/// of each Table-I model, which reproduces the pre-pool engine exactly
/// (every `Backend::Gpu { device, .. }` job lands on the single device of
/// that model, with the preset spec).
pub fn default_devices() -> Vec<DeviceProfile> {
    vec![DeviceProfile::tesla_c1060("gpu0"), DeviceProfile::tesla_m2050("gpu1")]
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. Results never depend on this; throughput does.
    pub workers: usize,
    /// LRU entry bound for each artifact-cache map (see
    /// [`crate::cache::ArtifactCache`]).
    pub cache_entries: usize,
    /// The simulated devices this engine schedules GPU jobs onto (see
    /// [`default_devices`]). An empty vector makes a CPU-only engine:
    /// GPU submissions fail with a typed [`EngineError::Placement`] and
    /// `auto` restricts itself to CPU candidates.
    pub devices: Vec<DeviceProfile>,
    /// Placement policy for jobs without a pinned device.
    pub placement: PlacementStrategy,
    /// Record metrics, per-job timelines and kernel profiles (default
    /// `true`). Never affects results — only whether the engine can
    /// answer "where did the milliseconds go" afterwards. Disabled, all
    /// instrumentation degrades to unarmed branches ([`aco_obs`]).
    pub observability: bool,
    /// Completed [`JobTimeline`]s retained for [`Engine::recent_timelines`]
    /// (oldest evicted first).
    pub trace_capacity: usize,
    /// Deterministic fault-injection plan (default `None`: injection
    /// disabled, zero scheduling impact). Injected faults are pure
    /// functions of `(job, device, attempt)` — see [`aco_faults`] — so a
    /// fixed plan yields bit-identical outcomes, placements and retry
    /// sequences at any worker count.
    pub fault_plan: Option<FaultPlan>,
    /// Thresholds of the per-device health state machine (see
    /// [`aco_devices::HealthPolicy`]).
    pub health: HealthPolicy,
    /// Donate idle workers' threads to running GPU launches (default
    /// `true`). A worker whose run queue and steal targets are empty
    /// parks on the ready condvar; while parked it is counted in a
    /// shared donation counter, and every GPU colony launch adds
    /// `min(count, MAX_DONATED_THREADS)` host threads on top of its
    /// device profile's `exec_threads` budget — returned the moment new
    /// work wakes the worker. Simulator results are bit-identical at any
    /// thread count, so placements, reports and progress streams do not
    /// depend on donation (or the worker count); only wall-clock does.
    pub donate_idle_threads: bool,
    /// Per-iteration search-dynamics measurement (default `None`: off,
    /// zero cost). Armed, every colony computes mean/stddev tour length,
    /// trail entropy and λ-branching at each iteration boundary and the
    /// lifecycle driver folds them through the config's stagnation
    /// detector; the stats ride on each `IterationEvent`, fold into the
    /// job's [`JobTimeline`], and bridge into per-job gauges. Write-only
    /// like the rest of observability: reports, placements and the
    /// non-stats event fields are bit-identical on or off.
    pub dynamics: Option<aco_obs::DynamicsConfig>,
    /// Engine-wide structured event journal (default `None`: off). Armed,
    /// the engine appends one JSONL record per lifecycle event — submit,
    /// placement, failed attempt, iteration sample, stagnation onset,
    /// completion — to a bounded in-memory ring (and optionally a file);
    /// export with [`Engine::journal_export`], replay with
    /// [`aco_obs::replay_timeline`]. Write-only: recording never feeds
    /// back into scheduling or solving. A config without an explicit
    /// [`aco_obs::JournalConfig::epoch_ms`] is anchored once at engine
    /// construction (one wall-clock read; never in the hot path), so
    /// exported journals from different runs can be time-aligned.
    pub journal: Option<aco_obs::JournalConfig>,
    /// Rolling-window aggregation for the serving layer (default `None`:
    /// off, zero cost). Armed, the engine keeps an [`RollingWindow`] a
    /// sampler feeds with bridged metrics snapshots ([`Engine::tick_windows`]
    /// manually, or the [`Engine::serve_observability`] sampler thread)
    /// and evaluates the configured SLOs on each tick. Strictly read-side:
    /// windows observe the same snapshots the Prometheus export does and
    /// never feed back into scheduling or solving.
    pub windows: Option<WindowConfig>,
    /// SLO specs evaluated on each window tick; empty means
    /// [`default_slos`] when `windows` is armed.
    pub slos: Vec<SloSpec>,
    /// Clock driving the window/SLO layer (default `None`: a
    /// [`MonotonicClock`] built at engine construction). Inject an
    /// [`aco_obs::ManualClock`] in tests to make every window and
    /// burn-rate computation deterministic.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(8);
        EngineConfig {
            workers,
            cache_entries: crate::cache::DEFAULT_CACHE_ENTRIES,
            devices: default_devices(),
            placement: PlacementStrategy::default(),
            observability: true,
            trace_capacity: aco_obs::DEFAULT_TRACE_CAPACITY,
            fault_plan: None,
            health: HealthPolicy::default(),
            donate_idle_threads: true,
            dynamics: None,
            journal: None,
            windows: None,
            slos: Vec::new(),
            clock: None,
        }
    }
}

impl EngineConfig {
    /// Config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig { workers: workers.max(1), ..Default::default() }
    }

    /// Builder: LRU entry bound for the artifact/decision caches.
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries.max(1);
        self
    }

    /// Builder: the simulated device pool.
    pub fn devices(mut self, devices: Vec<DeviceProfile>) -> Self {
        self.devices = devices;
        self
    }

    /// Builder: placement strategy.
    pub fn placement(mut self, strategy: PlacementStrategy) -> Self {
        self.placement = strategy;
        self
    }

    /// Builder: enable or disable observability (see
    /// [`EngineConfig::observability`]).
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Builder: retained completed-timeline count (clamped to ≥ 1).
    pub fn trace_capacity(mut self, timelines: usize) -> Self {
        self.trace_capacity = timelines.max(1);
        self
    }

    /// Builder: arm deterministic fault injection with `plan`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder: device health thresholds.
    pub fn health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health = policy;
        self
    }

    /// Builder: enable or disable idle-worker thread donation (see
    /// [`EngineConfig::donate_idle_threads`]).
    pub fn donate_idle(mut self, enabled: bool) -> Self {
        self.donate_idle_threads = enabled;
        self
    }

    /// Builder: arm per-iteration search-dynamics measurement (see
    /// [`EngineConfig::dynamics`]).
    pub fn dynamics(mut self, config: aco_obs::DynamicsConfig) -> Self {
        self.dynamics = Some(config);
        self
    }

    /// Builder: arm the engine-wide event journal (see
    /// [`EngineConfig::journal`]).
    pub fn journal(mut self, config: aco_obs::JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Builder: arm rolling-window aggregation (see
    /// [`EngineConfig::windows`]).
    pub fn windows(mut self, config: WindowConfig) -> Self {
        self.windows = Some(config);
        self
    }

    /// Builder: the SLO specs the window layer evaluates (see
    /// [`EngineConfig::slos`]).
    pub fn slos(mut self, specs: Vec<SloSpec>) -> Self {
        self.slos = specs;
        self
    }

    /// Builder: inject the window layer's clock (see
    /// [`EngineConfig::clock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }
}

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw engine-issued id (what a [`aco_obs::JobTimeline`] records
    /// as its `job` field).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Coarse lifecycle phase of a job (see [`JobHandle::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Submitted; no worker has started it.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; its result waits to be claimed by `poll`/`wait`.
    Finished,
    /// Finished and its result already claimed.
    Claimed,
}

const PHASE_QUEUED: u8 = 0;
const PHASE_RUNNING: u8 = 1;
const PHASE_FINISHED: u8 = 2;

// ---------------------------------------------------------------------------
// Progress streams

struct ProgressInner {
    events: VecDeque<IterationEvent>,
    dropped: u64,
    closed: bool,
}

/// The bounded per-job event buffer shared by the solving worker (push
/// side, via the job's `SolveCtx` observer) and any [`ProgressStream`]s.
struct ProgressShared {
    inner: Mutex<ProgressInner>,
    cv: Condvar,
    capacity: usize,
    /// Engine-wide `aco_engine_progress_dropped_total` bridge (no-op
    /// when observability is off).
    dropped_metric: Counter,
}

impl ProgressShared {
    fn new(capacity: usize, dropped_metric: Counter) -> Self {
        ProgressShared {
            inner: Mutex::new(ProgressInner { events: VecDeque::new(), dropped: 0, closed: false }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            dropped_metric,
        }
    }

    /// Push one event, dropping (and counting) the oldest past the bound
    /// so the solver never blocks on a slow consumer.
    fn push(&self, ev: IterationEvent) {
        let mut inner = self.inner.lock().expect("progress lock");
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
            self.dropped_metric.inc();
        }
        inner.events.push_back(ev);
        drop(inner);
        self.cv.notify_all();
    }

    /// Events dropped so far (see the module's backpressure contract).
    fn dropped(&self) -> u64 {
        self.inner.lock().expect("progress lock").dropped
    }

    /// Mark the stream finished (no further events will arrive).
    fn close(&self) {
        self.inner.lock().expect("progress lock").closed = true;
        self.cv.notify_all();
    }
}

/// A consuming view of a job's progress events, obtained from
/// [`JobHandle::progress`]. Iteration blocks until the next event or the
/// end of the job; [`ProgressStream::try_next`] never blocks. Events are
/// *consumed*: two streams over the same job split them between
/// themselves, so use one consumer per job.
///
/// For an uncancelled job whose event count stays within the request's
/// `progress_events` bound, the consumed sequence is bit-identical at any
/// engine worker count.
pub struct ProgressStream {
    shared: Arc<ProgressShared>,
}

impl ProgressStream {
    /// Next event if one is buffered (never blocks). `None` means "none
    /// right now" — the job may still be running; use the blocking
    /// iterator to distinguish end-of-stream.
    pub fn try_next(&mut self) -> Option<IterationEvent> {
        self.shared.inner.lock().expect("progress lock").events.pop_front()
    }

    /// Events dropped so far because the buffer was full (the oldest go
    /// first — see the module docs on backpressure).
    pub fn dropped(&self) -> u64 {
        self.shared.dropped()
    }
}

impl Iterator for ProgressStream {
    type Item = IterationEvent;

    /// Block until the next event, or `None` once the job has finished
    /// and every buffered event was consumed.
    fn next(&mut self) -> Option<IterationEvent> {
        let mut inner = self.shared.inner.lock().expect("progress lock");
        loop {
            if let Some(ev) = inner.events.pop_front() {
                return Some(ev);
            }
            if inner.closed {
                return None;
            }
            inner = self.shared.cv.wait(inner).expect("progress wait");
        }
    }
}

// ---------------------------------------------------------------------------
// Job state and queues

/// Which run queue a job's entry lives in (entries never migrate;
/// stealing pops directly from the owner's heap), so `set_priority`
/// knows which heap to restamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueSlot {
    /// Never enqueued (placement was rejected at submit).
    Unqueued,
    /// A per-worker CPU queue.
    Worker(usize),
    /// A per-device run queue.
    Device(usize),
}

/// `JobState::device` sentinel: no device bound (yet).
const NO_DEVICE: u32 = u32::MAX;

/// Shared per-job lifecycle state (held by the board, the queue entry and
/// every [`JobHandle`] clone).
struct JobState {
    cancel: CancelToken,
    priority: AtomicU8,
    phase: AtomicU8,
    progress: Arc<ProgressShared>,
    deadline: Option<Instant>,
    queue: QueueSlot,
    /// When `submit` accepted the job (the zero point of its queue-wait
    /// and first-event latencies).
    submitted: Instant,
    /// The job's span recorder (`None` with observability off).
    trace: Option<Arc<JobTrace>>,
    /// Has the first progress event been stamped with its latency?
    first_event: AtomicBool,
    /// The pool device the job is bound to (`NO_DEVICE` = none). Set at
    /// submit for explicitly-GPU jobs; set during `run_job` (before the
    /// solver is built, so before any progress event) when an auto job
    /// resolves to a GPU backend. Read by the progress observer to stamp
    /// events and by the retry supervisor to release the device after
    /// each attempt.
    device: AtomicU32,
    /// The pool's quarantine mask captured at submit (before this job's
    /// own supervision preview charged the health ledger). Run-time
    /// device choice — auto rotation and retry failover — avoids these
    /// devices via [`DevicePool::rotate_avoiding`] instead of reading
    /// live health, keeping it a pure function of the submission
    /// sequence.
    qmask: u64,
    /// Submit-time graceful degradation: every compatible device was
    /// quarantined and the job's policy allows the CPU fallback, so it
    /// queued as a CPU job and every attempt forces the CPU reference
    /// backend.
    degraded: bool,
}

impl JobState {
    fn device_id(&self) -> Option<DeviceId> {
        match self.device.load(Ordering::Acquire) {
            NO_DEVICE => None,
            d => Some(DeviceId(d)),
        }
    }

    fn set_device(&self, d: DeviceId) {
        self.device.store(d.0, Ordering::Release);
    }

    fn clear_device(&self) {
        self.device.store(NO_DEVICE, Ordering::Release);
    }
}

/// One queued job. Ordered by `(priority, submission order)`; the `prio`
/// stamp is a snapshot reconciled lazily against `state.priority` at pop.
struct QueueEntry {
    prio: u8,
    id: u64,
    state: Arc<JobState>,
    req: SolveRequest,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.id == other.id
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier submission.
        self.prio.cmp(&other.prio).then_with(|| other.id.cmp(&self.id))
    }
}

/// Lifecycle of one submitted job's result slot.
enum JobSlot {
    /// Submitted; no result yet.
    Pending,
    /// Finished; result waiting to be claimed.
    Done(Result<SolveReport, EngineError>),
}

/// In-flight result slots. A slot is created at submission and **removed
/// at claim**, so the board's size is bounded by the number of
/// outstanding jobs — no claimed-id tombstones and no drained-report
/// accumulation over the engine's lifetime. A claim on an issued id whose
/// slot is gone means "already claimed" and fails fast.
#[derive(Default)]
struct Board {
    jobs: HashMap<u64, JobSlot>,
}

/// The rolling-window/SLO state one engine owns when
/// [`EngineConfig::windows`] is armed. Serving-path only: the solve hot
/// path never reads or writes any of it.
pub(crate) struct WindowState {
    clock: Arc<dyn Clock>,
    window: RollingWindow,
    slos: Mutex<SloBoard>,
}

pub(crate) struct Shared {
    queues: Vec<Mutex<BinaryHeap<QueueEntry>>>,
    /// One run queue per pool device; GPU jobs wait here for their
    /// placed device's slot budget.
    device_queues: Vec<Mutex<BinaryHeap<QueueEntry>>>,
    pool: Arc<DevicePool>,
    /// Count of queued-but-unclaimed jobs; the condvar predicate.
    ready: Mutex<usize>,
    ready_cv: Condvar,
    board: Mutex<Board>,
    results_cv: Condvar,
    shutdown: AtomicBool,
    cache: ArtifactCache,
    /// The engine's observability hub (metrics registry, timeline sink,
    /// kernel profiler). Always present; disabled it records nothing.
    obs: Obs,
    /// Pre-registered scheduler metric handles (all no-ops when
    /// observability is off, so the hot path pays one branch each).
    metrics: SchedMetrics,
    /// Engine construction time (denominator of device utilization).
    started: Instant,
    /// The deterministic fault injector (disabled unless the config armed
    /// a [`FaultPlan`]; disabled, every query is one `None` branch).
    injector: FaultInjector,
    /// Workers currently parked on `ready_cv` with nothing runnable —
    /// the idle-thread donation counter GPU launches read (see
    /// [`EngineConfig::donate_idle_threads`]).
    donated: Arc<AtomicUsize>,
    /// Whether GPU bindings are handed the donation counter.
    donate: bool,
    /// Search-dynamics config handed to every job's `SolveCtx` (`None`:
    /// colonies skip the measurement entirely).
    dynamics: Option<aco_obs::DynamicsConfig>,
    /// The engine-wide event journal (`None`: journalling off).
    journal: Option<Arc<aco_obs::Journal>>,
    /// Rolling windows + SLO board (`None`: window layer off).
    windows: Option<WindowState>,
}

impl Shared {
    /// Journal timestamp: milliseconds since engine construction (wall
    /// clock, never fed back into scheduling).
    fn journal_ts_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// The full engine snapshot behind `Engine::metrics`: scheduler
    /// series plus per-device, per-job-dynamics and cache series bridged
    /// from their native counters here, at snapshot time, so neither
    /// subsystem depends on the metrics registry. Lives on `Shared` so
    /// the serving layer can snapshot without an `Engine` borrow.
    pub(crate) fn bridged_snapshot(&self) -> MetricsSnapshot {
        let reg = self.obs.metrics();
        if self.obs.is_enabled() {
            let elapsed = self.started.elapsed().as_secs_f64();
            // Label values flow through `labelled`, which escapes `\`,
            // `"` and newlines per the Prometheus text format — a
            // hostile device name must not corrupt the whole export.
            let dev = |base: &str, name: &str| aco_obs::metrics::labelled(base, "device", name);
            for d in self.pool.snapshot() {
                let name = &d.name;
                reg.gauge(&dev("aco_device_queued", name)).set(d.queued as i64);
                reg.gauge(&dev("aco_device_running", name)).set(d.running as i64);
                reg.counter(&dev("aco_device_completed_total", name)).set(d.completed);
                reg.counter(&dev("aco_device_admission_waits_total", name)).set(d.admission_waits);
                reg.gauge(&dev("aco_device_busy_ms", name)).set(d.busy_ms as i64);
                reg.gauge(&dev("aco_device_assigned_ms", name)).set(d.assigned_ms as i64);
                // Utilization in basis points (gauges are integers):
                // busy wall time over the engine's lifetime so far.
                let util_bp = if elapsed > 0.0 {
                    (d.busy_ms / (elapsed * 1e3) * 1e4).round() as i64
                } else {
                    0
                };
                reg.gauge(&dev("aco_device_utilization_bp", name)).set(util_bp);
                reg.gauge(&dev("aco_device_health", name)).set(d.health.code() as i64);
                reg.counter(&dev("aco_device_quarantines_total", name)).set(d.quarantines);
                reg.counter(&dev("aco_device_faults_observed_total", name)).set(d.faults_observed);
            }
            // Per-job search-dynamics gauges for every timeline still in
            // the ring; the fractional ones are float gauges, so they
            // carry the unquantised values.
            let job =
                |base: &str, id: u64| aco_obs::metrics::labelled(base, "job", &id.to_string());
            for t in self.obs.sink().recent() {
                if let Some(d) = &t.dynamics {
                    reg.gauge(&job("aco_job_stagnant_iterations", t.job))
                        .set(d.stagnant_iterations as i64);
                    reg.float_gauge(&job("aco_job_entropy", t.job)).set(d.final_entropy);
                    reg.float_gauge(&job("aco_job_lambda_branching", t.job))
                        .set(d.final_lambda_branching);
                }
            }
            let cs = self.cache.stats();
            reg.counter("aco_cache_artifact_hits_total").set(cs.artifact_hits);
            reg.counter("aco_cache_artifact_misses_total").set(cs.artifact_misses);
            reg.counter("aco_cache_decision_hits_total").set(cs.decision_hits);
            reg.counter("aco_cache_decision_misses_total").set(cs.decision_misses);
            reg.counter("aco_cache_evictions_total")
                .set(cs.artifact_evictions + cs.decision_evictions);
        }
        self.obs.snapshot()
    }

    /// Per-device health codes for the SLO bridge, as the plain view
    /// `aco-obs` understands (it depends on no other crate).
    fn device_health_view(&self) -> aco_obs::DeviceHealthView {
        self.pool.snapshot().into_iter().map(|d| (d.name, d.health.code())).collect()
    }

    /// One window tick: record the bridged snapshot at the clock's
    /// current time, then evaluate every SLO. See `Engine::tick_windows`.
    pub(crate) fn tick_windows(&self) -> Option<AlertState> {
        let ws = self.windows.as_ref()?;
        let now = ws.clock.now_ms();
        ws.window.record(now, self.bridged_snapshot());
        let devices = self.device_health_view();
        Some(ws.slos.lock().expect("slo lock").evaluate(&ws.window, &devices, now))
    }

    /// See `Engine::window_stats`.
    pub(crate) fn window_stats(&self, window_ms: u64) -> Option<WindowStats> {
        let ws = self.windows.as_ref()?;
        ws.window.stats(ws.clock.now_ms(), window_ms)
    }

    /// See `Engine::slo_statuses`.
    pub(crate) fn slo_statuses(&self) -> Vec<SloStatus> {
        match &self.windows {
            Some(ws) => ws.slos.lock().expect("slo lock").statuses(),
            None => Vec::new(),
        }
    }

    /// The `/slo` document: the SLO board as JSON (`[]` when the window
    /// layer is off).
    pub(crate) fn slo_json(&self) -> String {
        match &self.windows {
            Some(ws) => ws.slos.lock().expect("slo lock").to_json(),
            None => "[]".to_string(),
        }
    }

    /// Worst alert state on the board (`Ok` when the window layer is
    /// off — no alerting configured means nothing is firing).
    fn worst_alert(&self) -> AlertState {
        match &self.windows {
            Some(ws) => ws.slos.lock().expect("slo lock").worst(),
            None => AlertState::Ok,
        }
    }

    /// The `/healthz` document: engine uptime and queue state, job
    /// counters, per-device health, and the alert board's worst state.
    pub(crate) fn healthz_json(&self) -> String {
        use aco_obs::metrics::json_escape;
        let worst = self.worst_alert();
        let health = self.pool.health_summary();
        let outstanding = self.board.lock().expect("board lock").jobs.len();
        let mut out = format!(
            "{{\"status\":\"{}\",\"uptime_ms\":{},\"workers\":{},\"outstanding\":{},\
             \"jobs\":{{\"submitted\":{},\"completed\":{},\"failed\":{}}},\
             \"devices_quarantined\":{},\"devices\":[",
            worst.label(),
            (self.started.elapsed().as_secs_f64() * 1e3) as u64,
            self.queues.len(),
            outstanding,
            self.metrics.jobs_submitted.get(),
            self.metrics.jobs_completed.get(),
            self.metrics.jobs_failed.get(),
            health.quarantined,
        );
        for (i, d) in self.pool.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"health\":\"{}\",\"queued\":{},\"running\":{},\
                 \"completed\":{},\"faults\":{}}}",
                json_escape(&d.name),
                d.health.label(),
                d.queued,
                d.running,
                d.completed,
                d.faults_observed,
            ));
        }
        out.push_str(&format!("],\"alerts\":{}}}", self.slo_json()));
        out
    }

    /// The journal, for the serving layer's `/events` stream.
    pub(crate) fn journal_arc(&self) -> Option<Arc<aco_obs::Journal>> {
        self.journal.clone()
    }

    /// Is the rolling-window layer armed?
    pub(crate) fn has_windows(&self) -> bool {
        self.windows.is_some()
    }

    /// The armed window's bucket width, for the sampler cadence.
    pub(crate) fn window_bucket_ms(&self) -> Option<u64> {
        self.windows.as_ref().map(|ws| ws.window.bucket_ms())
    }

    /// The dashboard render behind `Engine::render_dashboard` (on
    /// `Shared` so the serving layer can render it).
    pub(crate) fn render_dashboard(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut out = format!(
            "aco-engine dashboard  t+{elapsed:.1}s  workers {}  journal {}\n",
            self.queues.len(),
            match &self.journal {
                Some(j) => format!("{} lines", j.len()),
                None => "off".to_string(),
            },
        );
        let devices = self.pool.snapshot();
        if devices.is_empty() {
            out.push_str("devices: none\n");
        } else {
            out.push_str("devices:\n");
            for d in devices {
                let util = if elapsed > 0.0 { d.busy_ms / (elapsed * 1e3) * 1e2 } else { 0.0 };
                out.push_str(&format!(
                    "  [{}] {:<12} queued {:>3}  running {:>2}  done {:>4}  util {:>5.1}%  {}\n",
                    d.id.0,
                    d.name,
                    d.queued,
                    d.running,
                    d.completed,
                    util,
                    d.health.label(),
                ));
            }
        }
        let timelines = self.obs.sink().recent();
        if timelines.is_empty() {
            out.push_str("jobs: none completed yet\n");
        } else {
            out.push_str("jobs (most recent last):\n");
            for t in timelines {
                let device = match t.device {
                    Some(d) => format!("dev{d}"),
                    None => "cpu".to_string(),
                };
                match &t.dynamics {
                    Some(d) => out.push_str(&format!(
                        "  job {:>3} {:<22} {device:<5} best {:>8}  {}  entropy {:.3}  \
                         lambda {:.2}  stagnant {}\n",
                        t.job,
                        t.backend,
                        if d.final_best == u64::MAX { 0 } else { d.final_best },
                        sparkline(&d.best_trajectory.values(), 24),
                        d.final_entropy,
                        d.final_lambda_branching,
                        d.stagnant_iterations,
                    )),
                    None => out.push_str(&format!(
                        "  job {:>3} {:<22} {device:<5} wall {:.1}ms\n",
                        t.job, t.backend, t.solve_wall_ms,
                    )),
                }
            }
        }
        out
    }
}

/// The scheduler's own metric handles, registered once at engine
/// construction (names are the export surface — see `Engine::metrics`).
struct SchedMetrics {
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    /// Pops served from a *peer's* queue (work stealing).
    steals: Counter,
    /// Back-off bouts workers spent with every runnable job gated on a
    /// saturated device (scheduler-side admission waiting; the pool
    /// counts per-device rejections separately).
    admission_wait_bouts: Counter,
    progress_dropped: Counter,
    /// Entries resident in run queues (decremented when a worker pops
    /// the entry, so eagerly-finalised jobs leave the gauge only when
    /// their dead entry is reaped).
    queue_depth: Gauge,
    jobs_running: Gauge,
    queue_wait_ms: Histogram,
    first_event_ms: Histogram,
    placement_ms: Histogram,
    /// Wall time of the supervised solve (jobs that actually ran —
    /// eagerly cancelled/expired jobs are excluded), the serving layer's
    /// solve-latency SLI.
    solve_wall_ms: Histogram,
    /// Failed attempts that were retried by the supervisor.
    retries: Counter,
    /// Retries that moved to a different device than the failed attempt.
    failovers: Counter,
    /// Jobs degraded to the CPU reference backend (at submit, when the
    /// pool was fully quarantined, or mid-job by `Failover::CpuFallback`).
    cpu_fallbacks: Counter,
    /// Faults delivered by the injection plan.
    faults_injected: Counter,
    /// Attempts reclassified as hung by the per-attempt watchdog.
    watchdog_trips: Counter,
    /// Healthy→stagnant transitions the dynamics detector flagged
    /// (counted once per onset, across all jobs).
    stagnation_events: Counter,
    /// Colony stagnation restarts surfaced by completed reports (MMAS
    /// trail re-initialisations).
    restarts: Counter,
}

impl SchedMetrics {
    fn new(reg: &aco_obs::MetricsRegistry) -> Self {
        SchedMetrics {
            jobs_submitted: reg.counter("aco_engine_jobs_submitted_total"),
            jobs_completed: reg.counter("aco_engine_jobs_completed_total"),
            jobs_failed: reg.counter("aco_engine_jobs_failed_total"),
            steals: reg.counter("aco_engine_steals_total"),
            admission_wait_bouts: reg.counter("aco_engine_admission_wait_bouts_total"),
            progress_dropped: reg.counter("aco_engine_progress_dropped_total"),
            queue_depth: reg.gauge("aco_engine_queue_depth"),
            jobs_running: reg.gauge("aco_engine_jobs_running"),
            queue_wait_ms: reg.histogram("aco_engine_queue_wait_ms", &LATENCY_BUCKETS_MS),
            first_event_ms: reg.histogram("aco_engine_first_event_ms", &LATENCY_BUCKETS_MS),
            placement_ms: reg.histogram("aco_engine_placement_ms", &LATENCY_BUCKETS_MS),
            solve_wall_ms: reg.histogram("aco_engine_solve_wall_ms", &LATENCY_BUCKETS_MS),
            retries: reg.counter("aco_engine_retries_total"),
            failovers: reg.counter("aco_engine_failovers_total"),
            cpu_fallbacks: reg.counter("aco_engine_cpu_fallbacks_total"),
            faults_injected: reg.counter("aco_engine_faults_injected_total"),
            watchdog_trips: reg.counter("aco_engine_watchdog_trips_total"),
            stagnation_events: reg.counter("aco_engine_stagnation_events_total"),
            restarts: reg.counter("aco_engine_restarts_total"),
        }
    }
}

/// Pop the best entry of a locked heap, reconciling stale priority
/// stamps: an entry whose stamp disagrees with the job's current
/// priority is re-pushed under the current one and the pop retried. This
/// backstops the `set_priority` heap restamp against the race where the
/// atomic is updated while a pop is in flight.
fn pop_reconciled(q: &mut BinaryHeap<QueueEntry>) -> Option<QueueEntry> {
    loop {
        let mut e = q.pop()?;
        let current = e.state.priority.load(Ordering::Acquire);
        if e.prio == current {
            return Some(e);
        }
        e.prio = current;
        q.push(e);
    }
}

impl Shared {
    /// Pop the best runnable entry of worker queue `qi`.
    fn pop_queue(&self, qi: usize) -> Option<QueueEntry> {
        pop_reconciled(&mut self.queues[qi].lock().expect("queue lock"))
    }

    /// Pop the best runnable entry of device queue `d`, admission-gated
    /// by the device's resident-job slot budget. The admission happens
    /// under the queue lock, so it always corresponds to the entry
    /// popped here (released by the worker loop when the job finishes,
    /// or immediately if the entry turns out to be finalised already).
    /// A queue with entries but no free slot sets `saturated` so the
    /// scan loop can tell "wait for a slot" from a transient pop race.
    fn pop_device_queue(&self, d: usize, saturated: &mut bool) -> Option<QueueEntry> {
        let mut q = self.device_queues[d].lock().expect("device queue lock");
        if q.is_empty() {
            return None;
        }
        if !self.pool.try_admit(DeviceId(d as u32)) {
            *saturated = true;
            return None;
        }
        let entry = pop_reconciled(&mut q).expect("non-empty heap under lock");
        Some(entry)
    }

    /// Claim a job: block until one is queued (or shutdown), then scan —
    /// own queue first, then the device queues (offset by the worker
    /// index so workers fan out over devices), then peers (stealing
    /// takes the peer's best entry, so high-priority work migrates
    /// first). GPU entries are only taken when their device has a free
    /// slot; when every remaining job sits on a saturated device the
    /// worker waits for a slot to free.
    fn next_job(&self, worker: usize) -> Option<QueueEntry> {
        {
            let mut ready = self.ready.lock().expect("ready lock");
            loop {
                if *ready > 0 {
                    *ready -= 1; // reserve one job; a matching pop must succeed below
                    break;
                }
                if self.shutdown.load(Ordering::Acquire) {
                    return None;
                }
                // Nothing runnable anywhere: donate this thread to any
                // in-flight GPU launch for as long as we are parked. The
                // count is reclaimed the instant a submit wakes us, so
                // new work never waits on a donated thread.
                self.donated.fetch_add(1, Ordering::Relaxed);
                ready = self.ready_cv.wait(ready).expect("ready wait");
                self.donated.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let k = self.queues.len();
        let dcount = self.device_queues.len();
        loop {
            if let Some(job) = self.pop_queue(worker) {
                return Some(job);
            }
            let mut saturated = false;
            for i in 0..dcount {
                if let Some(job) = self.pop_device_queue((worker + i) % dcount, &mut saturated) {
                    return Some(job);
                }
            }
            for peer in 1..k {
                if let Some(job) = self.pop_queue((worker + peer) % k) {
                    self.metrics.steals.inc();
                    return Some(job);
                }
            }
            if saturated {
                // The only queued jobs sit on devices whose slots are all
                // busy; their runners will release them in milliseconds,
                // not nanoseconds — sleep instead of burning the core the
                // runner needs.
                self.metrics.admission_wait_bouts.inc();
                std::thread::sleep(std::time::Duration::from_micros(100));
            } else {
                // Another reserving worker holds "our" job only
                // transiently (between its reservation and pop); re-scan.
                std::thread::yield_now();
            }
        }
    }

    /// Finalise a job: close its progress stream, mark it finished, and
    /// fill its result slot (a no-op if the slot was already claimed).
    fn post(&self, id: u64, state: &JobState, result: Result<SolveReport, EngineError>) {
        state.progress.close();
        state.phase.store(PHASE_FINISHED, Ordering::Release);
        let mut board = self.board.lock().expect("board lock");
        if let Some(slot) = board.jobs.get_mut(&id) {
            *slot = JobSlot::Done(result);
        }
        drop(board);
        self.results_cv.notify_all();
    }

    /// Blocking claim of `id`'s result (exactly once).
    fn claim_blocking(&self, id: u64, issued: bool) -> Result<SolveReport, EngineError> {
        if !issued {
            return Err(EngineError::UnknownJob);
        }
        let mut board = self.board.lock().expect("board lock");
        loop {
            match board.jobs.get(&id) {
                // Issued id without a slot: already claimed.
                None => return Err(EngineError::UnknownJob),
                Some(JobSlot::Done(_)) => {
                    let Some(JobSlot::Done(r)) = board.jobs.remove(&id) else {
                        unreachable!("matched Done above")
                    };
                    return r;
                }
                Some(JobSlot::Pending) => {
                    board = self.results_cv.wait(board).expect("results wait");
                }
            }
        }
    }

    /// Non-blocking claim: `None` while the job is still in flight.
    fn claim_nonblocking(&self, id: u64, issued: bool) -> Option<Result<SolveReport, EngineError>> {
        if !issued {
            return Some(Err(EngineError::UnknownJob));
        }
        let mut board = self.board.lock().expect("board lock");
        match board.jobs.get(&id) {
            None => Some(Err(EngineError::UnknownJob)),
            Some(JobSlot::Done(_)) => {
                let Some(JobSlot::Done(r)) = board.jobs.remove(&id) else {
                    unreachable!("matched Done above")
                };
                Some(r)
            }
            Some(JobSlot::Pending) => None,
        }
    }
}

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
                while !shared.pool.try_admit_unqueued(d) {
                    if let Some(reason) = ctx.stop_reason() {
                        return Err(match reason {
                            aco_core::lifecycle::StopReason::Cancelled => EngineError::Cancelled,
                            aco_core::lifecycle::StopReason::DeadlineExpired => {
                                EngineError::DeadlineExpired
                            }
                        });
                    }
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
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

// ---------------------------------------------------------------------------
// Retry supervision

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
fn preview_attempts(
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
fn run_supervised(
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
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into());
            Err(EngineError::Failed {
                job: id,
                backend: attempt_backend_label(req, force_cpu),
                device: state.device_id(),
                message,
            })
        });
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

        // Watchdog reclassification: an attempt stopped by the *watchdog*
        // deadline (not the job's own, which is terminal) is a hung
        // attempt — retryable, partial result discarded.
        let dogged = |stopped_early: bool| {
            policy.watchdog.is_some()
                && stopped_early
                && !state.cancel.is_cancelled()
                && state.deadline.is_none_or(|d| Instant::now() < d)
        };
        let watchdog_failed = |message: String| EngineError::Failed {
            job: id,
            backend: attempt_backend_label(req, force_cpu),
            device,
            message,
        };
        let result = match result {
            Ok(report) if dogged(report.outcome == JobOutcome::DeadlineExpired) => {
                shared.metrics.watchdog_trips.inc();
                Err(watchdog_failed(format!("attempt {attempt} exceeded its execution watchdog")))
            }
            Err(EngineError::DeadlineExpired) if dogged(true) => {
                shared.metrics.watchdog_trips.inc();
                Err(watchdog_failed(format!(
                    "attempt {attempt} exceeded its execution watchdog before any result"
                )))
            }
            other => other,
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
                // Admit a slot on the retry's device (the same gate every
                // other execution path respects), staying responsive to
                // cancellation and the job deadline.
                while !shared.pool.try_admit_unqueued(d) {
                    if state.cancel.is_cancelled()
                        || state.deadline.is_some_and(|dl| Instant::now() >= dl)
                    {
                        return Err(err);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                state.set_device(d);
            }
        }
        attempt += 1;
    }
}

/// The stable journal spelling of a [`JobOutcome`].
fn outcome_label(outcome: &JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Completed => "completed",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::DeadlineExpired => "deadline-expired",
    }
}

fn worker_loop(shared: Arc<Shared>, worker: usize) {
    while let Some(QueueEntry { id, state, req, .. }) = shared.next_job(worker) {
        shared.metrics.queue_depth.dec();
        // A device-queued entry arrives holding one admitted slot on its
        // placed device (granted in `pop_device_queue`).
        let admitted = match state.queue {
            QueueSlot::Device(d) => Some(DeviceId(d as u32)),
            _ => None,
        };
        // Only a QUEUED job may start running; an eager cancel that
        // already finalised the slot wins this race and the entry is a
        // no-op (its reservation was consumed by the pop above).
        if state
            .phase
            .compare_exchange(PHASE_QUEUED, PHASE_RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            if let Some(d) = admitted {
                shared.pool.cancel_admit(d);
            }
            continue;
        }
        let queue_wait_ms = state.submitted.elapsed().as_secs_f64() * 1e3;
        shared.metrics.queue_wait_ms.observe(queue_wait_ms);
        if let Some(trace) = &state.trace {
            trace.record_queue_wait_ms(queue_wait_ms);
        }
        // Drop cancelled / already-expired jobs before execution: no
        // solver is built and no cache entry is touched.
        let mut solve_wall_ms = 0.0;
        let mut cache_hit = None;
        let outcome = if state.cancel.is_cancelled() {
            if let Some(d) = admitted {
                shared.pool.cancel_admit(d);
            }
            Err(EngineError::Cancelled)
        } else if state.deadline.is_some_and(|d| Instant::now() >= d) {
            if let Some(d) = admitted {
                shared.pool.cancel_admit(d);
            }
            Err(EngineError::DeadlineExpired)
        } else {
            shared.metrics.jobs_running.inc();
            let t0 = Instant::now();
            // The supervisor owns attempt execution, panic capture,
            // watchdog reclassification, per-attempt slot release, and
            // retry/failover re-placement.
            let result = run_supervised(&shared, id, &state, &req);
            let wall = t0.elapsed();
            solve_wall_ms = wall.as_secs_f64() * 1e3;
            shared.metrics.solve_wall_ms.observe(solve_wall_ms);
            shared.metrics.jobs_running.dec();
            if let Some(trace) = &state.trace {
                trace.record_solve_wall_ms(wall.as_secs_f64() * 1e3);
                // The job ran (even if it failed mid-run): its timeline
                // goes to the engine-wide ring. Never-ran jobs (eager
                // cancel/expiry) have no spans worth keeping.
                let snapshot = trace.snapshot();
                cache_hit = snapshot.artifact_cache_hit;
                shared.obs.sink().push(snapshot);
            }
            result
        };
        match &outcome {
            Ok(report) => {
                shared.metrics.jobs_completed.inc();
                shared.metrics.restarts.add(report.restarts);
            }
            Err(_) => shared.metrics.jobs_failed.inc(),
        }
        if let Some(journal) = &shared.journal {
            let ts = shared.journal_ts_ms();
            match &outcome {
                Ok(report) => journal.record_complete(
                    ts,
                    id,
                    outcome_label(&report.outcome),
                    &report.backend.label(),
                    report.device.map(|d| d.0),
                    report.best_len,
                    report.iterations,
                    queue_wait_ms,
                    solve_wall_ms,
                    cache_hit,
                    report.attempts,
                    report.restarts,
                ),
                Err(_) => journal.record_complete(
                    ts,
                    id,
                    "failed",
                    &req.backend.label(),
                    state.device_id().map(|d| d.0),
                    0,
                    0,
                    queue_wait_ms,
                    solve_wall_ms,
                    cache_hit,
                    0,
                    0,
                ),
            }
        }
        shared.post(id, &state, outcome);
    }
}

// ---------------------------------------------------------------------------
// JobHandle

/// The lifecycle surface of one submitted job, returned by
/// [`Engine::submit`]. Clonable; clones address the same job (the result
/// is still claimed exactly once, by whichever `poll`/`wait` gets there
/// first).
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("status", &self.status())
            .field("priority", &self.priority())
            .finish()
    }
}

impl JobHandle {
    /// The engine-issued id (usable with [`Engine::wait`] for
    /// out-of-order claiming by id).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Finalise this job as deadline-expired if its deadline has passed
    /// while no worker started it (the eager-cancel pattern, for
    /// deadlines): without this, a queued job behind a long-running
    /// blocker would only be expired when a worker eventually popped it.
    fn expire_if_overdue(&self) {
        let overdue = self.state.deadline.is_some_and(|d| Instant::now() >= d);
        if overdue
            && self
                .state
                .phase
                .compare_exchange(PHASE_QUEUED, PHASE_FINISHED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.shared.post(self.id.0, &self.state, Err(EngineError::DeadlineExpired));
        }
    }

    /// Non-blocking result claim: `None` while the job is queued or
    /// running; `Some(result)` exactly once when it is done (a later call
    /// returns `Some(Err(UnknownJob))`, like a second `wait`).
    pub fn poll(&self) -> Option<Result<SolveReport, EngineError>> {
        self.expire_if_overdue();
        self.shared.claim_nonblocking(self.id.0, true)
    }

    /// Block until the job finishes and claim its result (exactly once).
    /// A job with a deadline is claimed no later than (shortly after) the
    /// deadline: a still-queued job is finalised as `DeadlineExpired`
    /// right when it passes, and a running colony stops at its next
    /// iteration boundary.
    pub fn wait(&self) -> Result<SolveReport, EngineError> {
        if let Some(deadline) = self.state.deadline {
            // Phase 1: wait until the job is done or the deadline
            // passes, under one continuous board-lock critical section —
            // a check/park gap here would let a post() slip through
            // unobserved and oversleep the whole timeout.
            let mut board = self.shared.board.lock().expect("board lock");
            while matches!(board.jobs.get(&self.id.0), Some(JobSlot::Pending)) {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                let (b, res) =
                    self.shared.results_cv.wait_timeout(board, left).expect("results wait");
                board = b;
                if res.timed_out() {
                    break;
                }
            }
            drop(board);
            // Phase 2: expire a job no worker ever started; a running
            // colony ends at its next iteration-boundary check, which
            // the plain blocking claim below observes race-free.
            self.expire_if_overdue();
        }
        self.shared.claim_blocking(self.id.0, true)
    }

    /// The job's bounded progress stream (one [`IterationEvent`] per
    /// completed colony iteration). Consume via the blocking [`Iterator`]
    /// impl or [`ProgressStream::try_next`].
    pub fn progress(&self) -> ProgressStream {
        ProgressStream { shared: Arc::clone(&self.state.progress) }
    }

    /// Events dropped (oldest-first) from this job's progress buffer so
    /// far because the consumer fell behind its bound — the per-job view
    /// of the backpressure contract (see the module docs; the engine-wide
    /// total is `aco_engine_progress_dropped_total`). Zero means the
    /// stream delivered (or still holds) every event.
    pub fn progress_dropped(&self) -> u64 {
        self.state.progress.dropped()
    }

    /// Snapshot of the job's span timeline so far: queue wait, placement,
    /// per-iteration construction/local-search/pheromone spans, kernel
    /// totals. `None` when the engine runs with observability off.
    /// Callable at any point in the job's life; after `wait` returns, the
    /// timeline is complete.
    pub fn timeline(&self) -> Option<JobTimeline> {
        self.state.trace.as_ref().map(|t| t.snapshot())
    }

    /// Coarse lifecycle phase right now.
    pub fn status(&self) -> JobStatus {
        match self.state.phase.load(Ordering::Acquire) {
            PHASE_QUEUED => JobStatus::Queued,
            PHASE_RUNNING => JobStatus::Running,
            _ => {
                let board = self.shared.board.lock().expect("board lock");
                if board.jobs.contains_key(&self.id.0) {
                    JobStatus::Finished
                } else {
                    JobStatus::Claimed
                }
            }
        }
    }

    /// Current scheduling priority.
    pub fn priority(&self) -> Priority {
        Priority::from_u8(self.state.priority.load(Ordering::Acquire))
    }

    /// Re-prioritise the job. Takes effect immediately for queued jobs:
    /// the job's heap entry is restamped in place (and the heap
    /// reordered); a running or finished job just records the new value.
    /// The pop path additionally reconciles any stamp this restamp raced
    /// with, so a stale entry can never run ahead of its class.
    pub fn set_priority(&self, priority: Priority) {
        self.state.priority.store(priority.as_u8(), Ordering::Release);
        let heap = match self.state.queue {
            QueueSlot::Worker(i) => &self.shared.queues[i],
            QueueSlot::Device(d) => &self.shared.device_queues[d],
            QueueSlot::Unqueued => return, // rejected at submit; nothing to restamp
        };
        let mut q = heap.lock().expect("queue lock");
        if q.iter().any(|e| e.id == self.id.0) {
            let mut entries: Vec<QueueEntry> = std::mem::take(&mut *q).into_vec();
            for e in &mut entries {
                if e.id == self.id.0 {
                    e.prio = priority.as_u8();
                }
            }
            *q = BinaryHeap::from(entries);
        }
    }

    /// Request cancellation; never blocks. A job that has not started is
    /// finalised immediately (its `wait` returns
    /// [`EngineError::Cancelled`] right away); a running colony observes
    /// the token at its next iteration boundary and reports its partial
    /// best with a `Cancelled` outcome.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
        // Try to finalise a still-queued job eagerly. The CAS races the
        // worker's QUEUED→RUNNING transition: exactly one side wins, so
        // the result is still delivered exactly once.
        if self
            .state
            .phase
            .compare_exchange(PHASE_QUEUED, PHASE_FINISHED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.shared.post(self.id.0, &self.state, Err(EngineError::Cancelled));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine

/// The concurrent batch-solve engine.
///
/// ```
/// use std::sync::Arc;
/// use aco_engine::{Backend, Engine, EngineConfig, SolveRequest};
/// use aco_core::AcoParams;
///
/// let engine = Engine::new(EngineConfig::with_workers(2));
/// let inst = Arc::new(aco_tsp::uniform_random("demo", 40, 600.0, 1));
/// let handles: Vec<_> = (0..4)
///     .map(|s| {
///         engine.submit(
///             SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(10))
///                 .backend(Backend::Auto)
///                 .iterations(5)
///                 .seed(s),
///         )
///     })
///     .collect();
/// for h in handles {
///     let report = h.wait().expect("job succeeds");
///     assert!(report.best_tour.is_valid());
/// }
/// ```
pub struct Engine {
    pub(crate) shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Spin up the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let workers = config.workers.max(1);
        let pool = Arc::new(DevicePool::with_health(
            config.devices.clone(),
            config.placement,
            config.health,
        ));
        let obs = Obs::new(config.observability, config.trace_capacity);
        let metrics = SchedMetrics::new(obs.metrics());
        let injector = config
            .fault_plan
            .clone()
            .map(FaultInjector::new)
            .unwrap_or_else(FaultInjector::disabled);
        let windows = config.windows.map(|wcfg| {
            let clock: Arc<dyn Clock> =
                config.clock.clone().unwrap_or_else(|| Arc::new(MonotonicClock::new()));
            let specs = if config.slos.is_empty() { default_slos() } else { config.slos.clone() };
            WindowState {
                clock,
                window: RollingWindow::new(wcfg),
                slos: Mutex::new(SloBoard::new(specs)),
            }
        });
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(BinaryHeap::new())).collect(),
            device_queues: (0..pool.len()).map(|_| Mutex::new(BinaryHeap::new())).collect(),
            pool,
            ready: Mutex::new(0),
            ready_cv: Condvar::new(),
            board: Mutex::new(Board::default()),
            results_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ArtifactCache::with_capacity(config.cache_entries),
            obs,
            metrics,
            injector,
            started: Instant::now(),
            donated: Arc::new(AtomicUsize::new(0)),
            donate: config.donate_idle_threads,
            dynamics: config.dynamics,
            journal: config.journal.map(|mut cfg| {
                // Anchor the journal to the wall clock once, here at
                // construction — never per event in the hot path — so
                // exports from different runs can be time-aligned.
                if cfg.epoch_ms.is_none() {
                    cfg.epoch_ms = Some(
                        std::time::SystemTime::now()
                            .duration_since(std::time::UNIX_EPOCH)
                            .map(|d| d.as_millis() as u64)
                            .unwrap_or(0),
                    );
                }
                Arc::new(aco_obs::Journal::new(cfg))
            }),
            windows,
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aco-engine-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("spawn worker")
            })
            .collect();
        Engine { shared, handles, next_id: AtomicU64::new(0) }
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Decide where `req` queues — and, for explicitly-GPU jobs, *place*
    /// it on a pool device. Placement errors are typed and final: the
    /// job never queues, never runs, and never touches any cache.
    fn place(&self, req: &SolveRequest) -> Result<Option<Placement>, PlacementError> {
        if let Some(model) = req.backend.required_model() {
            let n = req.instance.n();
            let m = req.params.ants_for(n);
            return self.shared.pool.place(model, req.affinity, n, m, req.iterations).map(Some);
        }
        match (&req.backend, req.affinity) {
            // Auto jobs may still resolve onto a device; the pinned id
            // must at least exist (its model constrains resolution).
            (Backend::Auto, _) => self.shared.pool.check_affinity(req.affinity).map(|_| None),
            // A CPU backend can never honour a pin.
            (_, DeviceAffinity::Pinned(d)) => Err(PlacementError::NotADeviceJob { device: d }),
            _ => Ok(None),
        }
    }

    /// Queue a job; returns its [`JobHandle`] immediately. A job whose
    /// placement is rejected (see [`SolveRequest::affinity`]) is
    /// finalised on the spot: its handle's `wait`/`poll` return
    /// [`EngineError::Placement`] without the job ever queueing.
    pub fn submit(&self, req: SolveRequest) -> JobHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.jobs_submitted.inc();
        let place_t0 = Instant::now();
        let placement = self.place(&req);
        let placement_ms = place_t0.elapsed().as_secs_f64() * 1e3;
        self.shared.metrics.placement_ms.observe(placement_ms);
        // Submit-time graceful degradation: a GPU job refused *only*
        // because its targets are quarantined queues as a CPU job when
        // its retry policy allows the CPU fallback.
        let degraded = matches!(
            &placement,
            Err(PlacementError::DeviceQuarantined { .. }
                | PlacementError::AllDevicesQuarantined { .. })
        ) && req.backend.required_model().is_some()
            && req.retry.failover == Failover::CpuFallback;
        let placement = if degraded {
            self.shared.metrics.cpu_fallbacks.inc();
            Ok(None)
        } else {
            placement
        };
        // Quarantine mask as of this submission — captured after this
        // job's placement but before its supervision preview, so run-time
        // device choices replay exactly what submit saw.
        let qmask =
            if self.shared.injector.is_armed() { self.shared.pool.quarantine_mask() } else { 0 };
        // Submit-time supervision preview: charge the health ledger with
        // this job's predicted attempt outcomes (pure in (job, device,
        // attempt)), so health advances in submission order, never on
        // execution timing.
        if self.shared.injector.is_armed() && !degraded {
            if let (Ok(Some(p)), Some(model)) = (&placement, req.backend.required_model()) {
                preview_attempts(
                    &self.shared.pool,
                    &self.shared.injector,
                    id,
                    &req,
                    p.device,
                    model,
                    qmask,
                );
            }
        }
        let queue = match &placement {
            Ok(Some(p)) => QueueSlot::Device(p.device.0 as usize),
            Ok(None) => QueueSlot::Worker(id as usize % self.shared.queues.len()),
            Err(_) => QueueSlot::Unqueued,
        };
        let trace = self.shared.obs.job_trace(id);
        if let Some(trace) = &trace {
            trace.record_placement_ms(placement_ms);
        }
        if let Some(journal) = &self.shared.journal {
            let ts = self.shared.journal_ts_ms();
            journal.record_submit(
                ts,
                id,
                &req.backend.label(),
                req.instance.name(),
                req.instance.n(),
                req.iterations,
                req.effective_seed(),
            );
            if let Ok(Some(p)) = &placement {
                let name = self
                    .shared
                    .pool
                    .profile(p.device)
                    .map(|prof| prof.name.clone())
                    .unwrap_or_default();
                journal.record_placement(ts, id, p.device.0, &name);
            }
        }
        let submitted = Instant::now();
        let state = Arc::new(JobState {
            cancel: CancelToken::new(),
            priority: AtomicU8::new(req.priority.as_u8()),
            phase: AtomicU8::new(PHASE_QUEUED),
            progress: Arc::new(ProgressShared::new(
                req.progress_events,
                self.shared.metrics.progress_dropped.clone(),
            )),
            deadline: req.timeout.map(|t| submitted + t),
            queue,
            submitted,
            trace,
            first_event: AtomicBool::new(false),
            device: AtomicU32::new(match &placement {
                Ok(Some(p)) => p.device.0,
                _ => NO_DEVICE,
            }),
            qmask,
            degraded,
        });
        // Create the result slot before the job becomes runnable, so a
        // fast worker can never post into a missing slot.
        self.shared.board.lock().expect("board lock").jobs.insert(id, JobSlot::Pending);
        match placement {
            Err(e) => {
                self.shared.post(id, &state, Err(EngineError::Placement(e)));
                return JobHandle { id: JobId(id), shared: Arc::clone(&self.shared), state };
            }
            Ok(_) => {
                self.shared.metrics.queue_depth.inc();
                let prio = req.priority.as_u8();
                let entry = QueueEntry { prio, id, state: Arc::clone(&state), req };
                match queue {
                    QueueSlot::Worker(w) => {
                        self.shared.queues[w].lock().expect("queue lock").push(entry);
                    }
                    QueueSlot::Device(d) => {
                        self.shared.pool.note_queued(DeviceId(d as u32));
                        self.shared.device_queues[d].lock().expect("device queue lock").push(entry);
                    }
                    QueueSlot::Unqueued => unreachable!("Ok placement always queues"),
                }
            }
        }
        let mut ready = self.shared.ready.lock().expect("ready lock");
        *ready += 1;
        drop(ready);
        self.shared.ready_cv.notify_one();
        JobHandle { id: JobId(id), shared: Arc::clone(&self.shared), state }
    }

    /// Block until `job` finishes and claim its result by id. Each result
    /// can be claimed once (by this or [`JobHandle::wait`]/`poll`); a
    /// second claim — or a wait on an id this engine never issued —
    /// returns [`EngineError::UnknownJob`] instead of blocking. Claiming
    /// removes the job's slot entirely, so the engine holds no per-job
    /// state after delivery.
    pub fn wait(&self, job: JobId) -> Result<SolveReport, EngineError> {
        self.shared.claim_blocking(job.0, job.0 < self.next_id.load(Ordering::Relaxed))
    }

    /// Number of jobs submitted but not yet claimed (the engine's entire
    /// per-job memory footprint — pinned by the board-growth test).
    pub fn outstanding(&self) -> usize {
        self.shared.board.lock().expect("board lock").jobs.len()
    }

    /// Submit a whole batch and collect results in submission order.
    pub fn run_batch(
        &self,
        reqs: impl IntoIterator<Item = SolveRequest>,
    ) -> Vec<Result<SolveReport, EngineError>> {
        let handles: Vec<JobHandle> = reqs.into_iter().map(|r| self.submit(r)).collect();
        handles.into_iter().map(|h| h.wait()).collect()
    }

    /// Snapshot of the artifact/decision cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The simulated device pool this engine schedules GPU jobs onto.
    pub fn pool(&self) -> &DevicePool {
        &self.shared.pool
    }

    /// Point-in-time telemetry of every pool device (queue depth,
    /// occupancy, completions, busy time, assigned backlog).
    pub fn device_stats(&self) -> Vec<DeviceSnapshot> {
        self.shared.pool.snapshot()
    }

    /// Whether this engine records metrics, traces and kernel profiles.
    pub fn observability_enabled(&self) -> bool {
        self.shared.obs.is_enabled()
    }

    /// Point-in-time snapshot of every engine metric — scheduler
    /// counters/gauges/latency histograms, per-device and cache gauges
    /// (bridged from their native counters here, at snapshot time, so
    /// neither subsystem depends on the metrics registry), and per-family
    /// kernel profiles. Export via [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`]. Empty when observability is off.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.bridged_snapshot()
    }

    /// The most recent completed-job timelines (bounded ring of
    /// [`EngineConfig::trace_capacity`] entries, oldest evicted first).
    /// Jobs that never ran — eagerly cancelled or expired while queued —
    /// are not recorded. Empty when observability is off.
    pub fn recent_timelines(&self) -> Vec<Arc<JobTimeline>> {
        self.shared.obs.sink().recent()
    }

    /// Timelines evicted from the [`Engine::recent_timelines`] ring so
    /// far (how much history the bound has discarded).
    pub fn timelines_evicted(&self) -> u64 {
        self.shared.obs.sink().evicted()
    }

    /// The engine's event journal, when [`EngineConfig::journal`]
    /// configured one.
    pub fn journal(&self) -> Option<&aco_obs::Journal> {
        self.shared.journal.as_deref()
    }

    /// The retained journal as one JSONL document (oldest line first),
    /// or `None` when no journal is configured. Feed one job's worth to
    /// [`aco_obs::replay_timeline`] to reconstruct its timeline offline.
    pub fn journal_export(&self) -> Option<String> {
        self.shared.journal.as_ref().map(|j| j.export())
    }

    /// A textual live view of the engine: one row per pool device
    /// (queue depth, running jobs, utilisation, health) and one row per
    /// recent job with a best-so-far convergence sparkline and the final
    /// dynamics numbers. Purely observational — rendering reads the same
    /// snapshots the metrics export does.
    pub fn render_dashboard(&self) -> String {
        self.shared.render_dashboard()
    }

    /// Record one window frame (the bridged metrics snapshot at the
    /// configured clock's current time) and evaluate every SLO against
    /// it, returning the board's worst [`AlertState`]. `None` when
    /// [`EngineConfig::windows`] is off. The
    /// [`Engine::serve_observability`] sampler calls this on a cadence;
    /// tests drive it manually under an [`aco_obs::ManualClock`].
    pub fn tick_windows(&self) -> Option<AlertState> {
        self.shared.tick_windows()
    }

    /// The rolling serving summary for the last `window_ms` milliseconds
    /// (throughput, failure rate, latency quantiles, per-device
    /// utilisation/fault rates). `None` when the window layer is off or
    /// fewer than two frames have been recorded.
    pub fn window_stats(&self, window_ms: u64) -> Option<WindowStats> {
        self.shared.window_stats(window_ms)
    }

    /// Current status of every configured SLO (state, burn rates, cause,
    /// transition timeline). Empty when the window layer is off.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        self.shared.slo_statuses()
    }

    /// The aggregated health document served at `/healthz` (engine
    /// uptime/queue state, per-device health, worst alert state).
    pub fn healthz_json(&self) -> String {
        self.shared.healthz_json()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Set the flag and notify *while holding the ready mutex*: a
        // worker between its shutdown check and `wait()` still holds the
        // lock, so we cannot fire the notification into that window — it
        // either sees the flag on its next loop or is already waiting and
        // gets woken.
        {
            let _ready = self.shared.ready.lock().expect("ready lock");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.ready_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Backend;
    use aco_core::{AcoParams, TourPolicy};
    use std::sync::Arc;

    fn small_batch(inst: &Arc<aco_tsp::TspInstance>) -> Vec<SolveRequest> {
        let params = AcoParams::default().nn(8).ants(10);
        vec![
            SolveRequest::new(Arc::clone(inst), params.clone())
                .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
                .iterations(4)
                .seed(1),
            SolveRequest::new(Arc::clone(inst), params.clone())
                .backend(Backend::CpuParallel {
                    policy: TourPolicy::NearestNeighborList,
                    threads: 3,
                })
                .iterations(4)
                .seed(2),
            SolveRequest::new(Arc::clone(inst), params)
                .backend(Backend::Auto)
                .iterations(3)
                .seed(3),
        ]
    }

    #[test]
    fn engine_results_do_not_depend_on_worker_count() {
        let inst = Arc::new(aco_tsp::uniform_random("sched", 30, 500.0, 11));
        let serial = Engine::new(EngineConfig::with_workers(1)).run_batch(small_batch(&inst));
        let parallel = Engine::new(EngineConfig::with_workers(4)).run_batch(small_batch(&inst));
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn cache_is_shared_across_jobs() {
        let inst = Arc::new(aco_tsp::uniform_random("sched2", 25, 400.0, 5));
        let engine = Engine::new(EngineConfig::with_workers(1));
        let reports = engine.run_batch(small_batch(&inst));
        assert!(reports.iter().all(|r| r.is_ok()));
        let stats = engine.cache_stats();
        assert_eq!(stats.artifact_misses, 1, "one build for the shared instance");
        assert!(stats.artifact_hits >= 2, "subsequent jobs reuse it: {stats:?}");
    }

    #[test]
    fn out_of_order_wait_works() {
        let inst = Arc::new(aco_tsp::uniform_random("sched3", 20, 300.0, 9));
        let engine = Engine::new(EngineConfig::with_workers(2));
        let ids: Vec<JobId> =
            small_batch(&inst).into_iter().map(|r| engine.submit(r).id()).collect();
        for id in ids.iter().rev() {
            assert!(engine.wait(*id).is_ok());
        }
    }

    #[test]
    fn waiting_twice_or_on_a_foreign_id_fails_fast() {
        use crate::solver::EngineError;
        let inst = Arc::new(aco_tsp::uniform_random("sched5", 18, 300.0, 6));
        let engine = Engine::new(EngineConfig::with_workers(1));
        let h = engine.submit(
            SolveRequest::new(inst, AcoParams::default().nn(5).ants(6))
                .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
                .iterations(2)
                .seed(1),
        );
        assert!(h.wait().is_ok());
        assert_eq!(h.wait(), Err(EngineError::UnknownJob), "double claim");
        assert_eq!(h.poll(), Some(Err(EngineError::UnknownJob)), "claimed poll");
        assert_eq!(h.status(), JobStatus::Claimed);
        let never_issued = JobId(999);
        assert_eq!(engine.wait(never_issued), Err(EngineError::UnknownJob), "foreign id");
    }

    #[test]
    fn poll_claims_exactly_once_after_completion() {
        let inst = Arc::new(aco_tsp::uniform_random("sched7", 18, 300.0, 3));
        let engine = Engine::new(EngineConfig::with_workers(1));
        let h = engine.submit(
            SolveRequest::new(inst, AcoParams::default().nn(5).ants(6))
                .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
                .iterations(2)
                .seed(4),
        );
        // Spin on poll until the job lands (bounded by the test timeout).
        let report = loop {
            match h.poll() {
                Some(r) => break r,
                None => std::thread::yield_now(),
            }
        };
        assert!(report.is_ok());
        assert_eq!(h.poll(), Some(Err(EngineError::UnknownJob)));
    }

    #[test]
    fn result_board_does_not_grow_over_engine_lifetime() {
        let inst = Arc::new(aco_tsp::uniform_random("sched6", 20, 300.0, 4));
        let engine = Engine::new(EngineConfig::with_workers(2));
        // Several full submit/claim generations: after each, the board
        // must be empty again (no tombstones, no drained reports).
        for gen in 0..3 {
            let handles: Vec<JobHandle> = (0..6)
                .map(|j| {
                    engine.submit(
                        SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(6).ants(5))
                            .backend(Backend::CpuSequential {
                                policy: TourPolicy::NearestNeighborList,
                            })
                            .iterations(2)
                            .seed(gen * 100 + j),
                    )
                })
                .collect();
            for h in handles {
                assert!(h.wait().is_ok());
            }
            assert_eq!(engine.outstanding(), 0, "board must be empty after generation {gen}");
        }
    }

    #[test]
    fn cache_is_lru_bounded() {
        let inst_a = Arc::new(aco_tsp::uniform_random("lru-a", 16, 300.0, 1));
        let inst_b = Arc::new(aco_tsp::uniform_random("lru-b", 16, 300.0, 2));
        let inst_c = Arc::new(aco_tsp::uniform_random("lru-c", 16, 300.0, 3));
        let engine = Engine::new(EngineConfig::with_workers(1).cache_entries(2));
        let req = |inst: &Arc<aco_tsp::TspInstance>, seed| {
            SolveRequest::new(Arc::clone(inst), AcoParams::default().nn(5).ants(4))
                .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
                .iterations(1)
                .seed(seed)
        };
        // Three distinct instances through a 2-entry cache: at least one
        // eviction must fire, and re-touching the evicted instance
        // rebuilds (a miss, not a hit).
        for (i, inst) in [&inst_a, &inst_b, &inst_c].into_iter().enumerate() {
            engine.submit(req(inst, i as u64)).wait().unwrap();
        }
        let s1 = engine.cache_stats();
        assert!(s1.artifact_evictions >= 1, "third instance must evict: {s1:?}");
        assert_eq!(s1.artifact_misses, 3);
        engine.submit(req(&inst_a, 9)).wait().unwrap();
        let s2 = engine.cache_stats();
        assert_eq!(s2.artifact_misses, 4, "evicted artifacts rebuild on reuse");
    }

    #[test]
    fn zero_iterations_is_reported_as_no_solution() {
        let inst = Arc::new(aco_tsp::uniform_random("sched4", 15, 300.0, 2));
        let engine = Engine::new(EngineConfig::with_workers(1));
        let req = SolveRequest::new(inst, AcoParams::default().nn(5))
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(0);
        let h = engine.submit(req);
        assert_eq!(h.wait(), Err(EngineError::NoSolution));
    }
}

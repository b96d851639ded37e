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

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use aco_core::lifecycle::{CancelToken, StopReason};
use aco_devices::{
    DeviceAffinity, DeviceId, DevicePool, DeviceSnapshot, Placement, PlacementError,
};
use aco_faults::FaultInjector;
use aco_obs::{Counter, Gauge, Histogram, JobTimeline, JobTrace, Obs, LATENCY_BUCKETS_MS};

use crate::board::{Board, JobSlot, ProgressShared, ProgressStream};
use crate::cache::{ArtifactCache, CacheStats};
use crate::config::EngineConfig;
use crate::obs_bridge::{anchored_journal, WindowState};
use crate::solver::{
    stop_error, Backend, EngineError, Failover, JobOutcome, Priority, SolveReport, SolveRequest,
};
use crate::supervisor::{preview_attempts, run_supervised};

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

pub(crate) const PHASE_QUEUED: u8 = 0;
pub(crate) const PHASE_RUNNING: u8 = 1;
pub(crate) const PHASE_FINISHED: u8 = 2;

// ---------------------------------------------------------------------------
// Job state and queues

/// Which run queue a job's entry lives in (entries never migrate;
/// stealing pops directly from the owner's heap), so `set_priority`
/// knows which heap to restamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueSlot {
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
pub(crate) struct JobState {
    pub(crate) cancel: CancelToken,
    pub(crate) priority: AtomicU8,
    pub(crate) phase: AtomicU8,
    pub(crate) progress: Arc<ProgressShared>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) queue: QueueSlot,
    /// When `submit` accepted the job (the zero point of its queue-wait
    /// and first-event latencies).
    pub(crate) submitted: Instant,
    /// The job's span recorder (`None` with observability off).
    pub(crate) trace: Option<Arc<JobTrace>>,
    /// Has the first progress event been stamped with its latency?
    pub(crate) first_event: AtomicBool,
    /// The pool device the job is bound to (`NO_DEVICE` = none). Set at
    /// submit for explicitly-GPU jobs; set during `run_attempt` (before the
    /// solver is built, so before any progress event) when an auto job
    /// resolves to a GPU backend. Read by the progress observer to stamp
    /// events and by the retry supervisor to release the device after
    /// each attempt.
    pub(crate) device: AtomicU32,
    /// The pool's quarantine mask captured at submit (before this job's
    /// own supervision preview charged the health ledger). Run-time
    /// device choice — auto rotation and retry failover — avoids these
    /// devices via [`DevicePool::rotate_avoiding`] instead of reading
    /// live health, keeping it a pure function of the submission
    /// sequence.
    pub(crate) qmask: u64,
    /// Submit-time graceful degradation: every compatible device was
    /// quarantined and the job's policy allows the CPU fallback, so it
    /// queued as a CPU job and every attempt forces the CPU reference
    /// backend.
    pub(crate) degraded: bool,
}

impl JobState {
    pub(crate) fn device_id(&self) -> Option<DeviceId> {
        match self.device.load(Ordering::Acquire) {
            NO_DEVICE => None,
            d => Some(DeviceId(d)),
        }
    }

    pub(crate) fn set_device(&self, d: DeviceId) {
        self.device.store(d.0, Ordering::Release);
    }

    pub(crate) fn clear_device(&self) {
        self.device.store(NO_DEVICE, Ordering::Release);
    }

    /// Why the job must stop now, if it must: it was cancelled, or its
    /// own deadline has passed.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            Some(StopReason::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopReason::DeadlineExpired)
        } else {
            None
        }
    }
}

/// One queued job. Ordered by `(priority, submission order)`; the `prio`
/// stamp is a snapshot reconciled lazily against `state.priority` at pop.
pub(crate) struct QueueEntry {
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

pub(crate) struct Shared {
    pub(crate) queues: Vec<Mutex<BinaryHeap<QueueEntry>>>,
    /// One run queue per pool device; GPU jobs wait here for their
    /// placed device's slot budget.
    pub(crate) device_queues: Vec<Mutex<BinaryHeap<QueueEntry>>>,
    pub(crate) pool: Arc<DevicePool>,
    /// Count of queued-but-unclaimed jobs; the condvar predicate.
    pub(crate) ready: Mutex<usize>,
    pub(crate) ready_cv: Condvar,
    pub(crate) board: Mutex<Board>,
    pub(crate) results_cv: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) cache: ArtifactCache,
    /// The engine's observability hub (metrics registry, timeline sink,
    /// kernel profiler). Always present; disabled it records nothing.
    pub(crate) obs: Obs,
    /// Pre-registered scheduler metric handles (all no-ops when
    /// observability is off, so the hot path pays one branch each).
    pub(crate) metrics: SchedMetrics,
    /// Engine construction time (denominator of device utilization).
    pub(crate) started: Instant,
    /// The deterministic fault injector (disabled unless the config armed
    /// a [`FaultPlan`]; disabled, every query is one `None` branch).
    pub(crate) injector: FaultInjector,
    /// Workers currently parked on `ready_cv` with nothing runnable —
    /// the idle-thread donation counter GPU launches read (see
    /// [`EngineConfig::donate_idle_threads`]).
    pub(crate) donated: Arc<AtomicUsize>,
    /// Whether GPU bindings are handed the donation counter.
    pub(crate) donate: bool,
    /// Search-dynamics config handed to every job's `SolveCtx` (`None`:
    /// colonies skip the measurement entirely).
    pub(crate) dynamics: Option<aco_obs::DynamicsConfig>,
    /// The engine-wide event journal (`None`: journalling off).
    pub(crate) journal: Option<Arc<aco_obs::Journal>>,
    /// Rolling windows + SLO board (`None`: window layer off).
    pub(crate) windows: Option<WindowState>,
}

impl Shared {
    /// Journal timestamp: milliseconds since engine construction (wall
    /// clock, never fed back into scheduling).
    pub(crate) fn journal_ts_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }
}

/// The scheduler's own metric handles, registered once at engine
/// construction (names are the export surface — see `Engine::metrics`).
pub(crate) struct SchedMetrics {
    pub(crate) jobs_submitted: Counter,
    pub(crate) jobs_completed: Counter,
    pub(crate) jobs_failed: Counter,
    /// Pops served from a *peer's* queue (work stealing).
    pub(crate) steals: Counter,
    /// Back-off bouts workers spent with every runnable job gated on a
    /// saturated device (scheduler-side admission waiting; the pool
    /// counts per-device rejections separately).
    pub(crate) admission_wait_bouts: Counter,
    pub(crate) progress_dropped: Counter,
    /// Entries resident in run queues (decremented when a worker pops
    /// the entry, so eagerly-finalised jobs leave the gauge only when
    /// their dead entry is reaped).
    pub(crate) queue_depth: Gauge,
    pub(crate) jobs_running: Gauge,
    pub(crate) queue_wait_ms: Histogram,
    pub(crate) first_event_ms: Histogram,
    pub(crate) placement_ms: Histogram,
    /// Wall time of the supervised solve (jobs that actually ran —
    /// eagerly cancelled/expired jobs are excluded), the serving layer's
    /// solve-latency SLI.
    pub(crate) solve_wall_ms: Histogram,
    /// Failed attempts that were retried by the supervisor.
    pub(crate) retries: Counter,
    /// Retries that moved to a different device than the failed attempt.
    pub(crate) failovers: Counter,
    /// Jobs degraded to the CPU reference backend (at submit, when the
    /// pool was fully quarantined, or mid-job by `Failover::CpuFallback`).
    pub(crate) cpu_fallbacks: Counter,
    /// Faults delivered by the injection plan.
    pub(crate) faults_injected: Counter,
    /// Attempts reclassified as hung by the per-attempt watchdog.
    pub(crate) watchdog_trips: Counter,
    /// Healthy→stagnant transitions the dynamics detector flagged
    /// (counted once per onset, across all jobs).
    pub(crate) stagnation_events: Counter,
    /// Colony stagnation restarts surfaced by completed reports (MMAS
    /// trail re-initialisations).
    pub(crate) restarts: Counter,
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
        let outcome = if let Some(reason) = state.stop_reason() {
            if let Some(d) = admitted {
                shared.pool.cancel_admit(d);
            }
            Err(stop_error(reason))
        } else {
            shared.metrics.jobs_running.inc();
            let t0 = Instant::now();
            // The supervisor owns attempt execution, panic capture,
            // watchdog reclassification, per-attempt slot release, and
            // retry/failover re-placement.
            let result = run_supervised(&shared, id, &state, &req);
            solve_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            shared.metrics.solve_wall_ms.observe(solve_wall_ms);
            shared.metrics.jobs_running.dec();
            if let Some(trace) = &state.trace {
                trace.record_solve_wall_ms(solve_wall_ms);
                // The job ran (even if it failed mid-run): its timeline
                // goes to the engine-wide ring. Never-ran jobs (eager
                // cancel/expiry) have no spans worth keeping.
                let snapshot = trace.snapshot();
                cache_hit = snapshot.artifact_cache_hit;
                shared.obs.sink().push(snapshot);
            }
            result
        };
        let report = outcome.as_ref().ok();
        match report {
            Some(r) => {
                shared.metrics.jobs_completed.inc();
                shared.metrics.restarts.add(r.restarts);
            }
            None => shared.metrics.jobs_failed.inc(),
        }
        if let Some(journal) = &shared.journal {
            journal.record_complete(
                shared.journal_ts_ms(),
                id,
                report.map_or("failed", |r| outcome_label(&r.outcome)),
                &report.map_or_else(|| req.backend.label(), |r| r.backend.label()),
                report.map_or(state.device_id(), |r| r.device).map(|d| d.0),
                report.map_or(0, |r| r.best_len),
                report.map_or(0, |r| r.iterations),
                queue_wait_ms,
                solve_wall_ms,
                cache_hit,
                report.map_or(0, |r| r.attempts),
                report.map_or(0, |r| r.restarts),
            );
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
        if self.state.deadline.is_some_and(|d| Instant::now() >= d) {
            self.finalise_queued(EngineError::DeadlineExpired);
        }
    }

    /// Finalise a still-queued job with `err`. The CAS races the
    /// worker's QUEUED→RUNNING transition: exactly one side wins, so the
    /// result is still delivered exactly once.
    fn finalise_queued(&self, err: EngineError) {
        if self
            .state
            .phase
            .compare_exchange(PHASE_QUEUED, PHASE_FINISHED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.shared.post(self.id.0, &self.state, Err(err));
        }
    }

    /// Non-blocking result claim: `None` while the job is queued or
    /// running; `Some(result)` exactly once when it is done (a later call
    /// returns `Some(Err(UnknownJob))`, like a second `wait`).
    pub fn poll(&self) -> Option<Result<SolveReport, EngineError>> {
        self.expire_if_overdue();
        self.shared.claim_nonblocking(self.id.0)
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
        self.shared.claim_blocking(self.id.0)
    }

    /// The job's bounded progress stream (one
    /// [`IterationEvent`](aco_core::lifecycle::IterationEvent) per
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
        self.finalise_queued(EngineError::Cancelled);
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
            journal: config.journal.clone().map(anchored_journal),
            windows: WindowState::from_config(&config),
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
        if job.0 >= self.next_id.load(Ordering::Relaxed) {
            return Err(EngineError::UnknownJob);
        }
        self.shared.claim_blocking(job.0)
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

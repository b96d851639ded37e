//! `aco-engine` — a concurrent batch-solve engine over every ACO backend
//! in this workspace.
//!
//! The paper parallelises both ACO phases on one GPU for one TSP instance
//! at a time; this crate turns that single-solve capability into a
//! throughput system with full job-lifecycle control:
//!
//! * **One colony contract** ([`solver`]): the sequential Ant System,
//!   the multi-threaded CPU colony, [`GpuAntSystem`](aco_core::GpuAntSystem)
//!   under any `TourStrategy × PheromoneStrategy` combination, and the
//!   ACS/MMAS variants all implement [`Colony`] — one ACO iteration per
//!   step, priced per phase. [`build_solver`] turns a [`Backend`] value
//!   into a boxed colony, and [`solve`] runs it under the one
//!   [`drive`](aco_core::lifecycle::drive) loop, which checks
//!   cancellation/deadlines, records trace spans, folds search dynamics
//!   and emits iteration-best events for every colony alike, and turns
//!   the run into a [`SolveReport`].
//! * **Priority-aware work-stealing scheduler** ([`scheduler`]):
//!   [`Engine::submit`] queues jobs onto a worker pool and returns a
//!   [`JobHandle`] — non-blocking [`JobHandle::poll`], blocking
//!   [`JobHandle::wait`], a bounded [`JobHandle::progress`] event stream,
//!   prompt [`JobHandle::cancel`], and [`JobHandle::set_priority`]
//!   re-prioritisation. Per-job seeding is deterministic, so a batch
//!   returns bit-identical reports (and progress streams) for any worker
//!   count.
//! * **Simulated multi-GPU device pool** ([`aco_devices`], configured via
//!   [`EngineConfig::devices`]): GPU jobs are placed at submit time onto
//!   the least-loaded compatible device (by `predicted kernel time ×
//!   iterations + assigned backlog`), honouring per-request
//!   [`DeviceAffinity`] (pinned placements are honoured exactly or
//!   rejected with a typed [`PlacementError`]); each device has its own
//!   priority run queue, resident-job slot budget and exec-thread budget,
//!   and reports per-device telemetry ([`Engine::device_stats`]).
//!   Placement is deterministic: a fixed batch on a fixed pool yields
//!   bit-identical device assignments at any worker count.
//! * **Instance-artifact cache** ([`cache`]): nearest-neighbour candidate
//!   lists, greedy-tour lengths and backend decisions are keyed by the
//!   instance **content hash** and shared across jobs on the same
//!   instance.
//! * **Cost-model auto-selection** ([`auto`]): [`Backend::Auto`] prices
//!   CPU candidates with the paper's [`CpuModel`](aco_core::CpuModel)
//!   counters and GPU candidates with the simulator's kernel-time
//!   estimates on the target `DeviceSpec` — candidates restricted to
//!   device models the pool actually contains — then runs the winner.
//! * **Observability** ([`aco_obs`], on by default, opt out via
//!   [`EngineConfig::observe`]): a metrics registry
//!   ([`Engine::metrics`], exportable as Prometheus text or JSON),
//!   per-job span timelines ([`JobHandle::timeline`],
//!   [`Engine::recent_timelines`]) covering queue wait, placement,
//!   per-iteration construction / local-search / pheromone spans, and
//!   per-kernel-family profiles from the simulated launch path. Purely
//!   write-only: solve results, placements and progress sequences are
//!   bit-identical with observability on or off.
//! * **Search dynamics & event journal** (opt in via
//!   [`EngineConfig::dynamics`] / [`EngineConfig::journal`]): per-iteration
//!   colony statistics — mean/stddev tour length, best-so-far improvement,
//!   pheromone trail entropy, mean λ-branching factor, and a configurable
//!   stagnation detector — computed by every backend at iteration
//!   boundaries, surfaced on [`IterationEvent`] and folded into each
//!   timeline's [`DynamicsSummary`]; plus a bounded engine-wide JSONL
//!   flight recorder ([`Journal`]) of submit / placement / attempt /
//!   iteration-sample / stagnation / completion events, exportable via
//!   [`Engine::journal_export`] and replayable offline with
//!   [`replay_timeline`]. [`Engine::render_dashboard`] renders both as a
//!   textual live view. The write-only contract extends to both layers:
//!   results are bit-identical with dynamics/journal on or off.
//! * **Fault tolerance** ([`aco_faults`], armed via
//!   [`EngineConfig::faults`]): a seeded, deterministic fault injector
//!   (kernel panics, transient device errors, hangs — pure functions of
//!   `(job, device, attempt)`), a per-device health state machine in the
//!   pool (Healthy → Degraded → Quarantined with probation re-admission)
//!   consulted by placement, and a per-job retry supervisor
//!   ([`RetryPolicy`] on [`SolveRequest`]): bounded attempts with
//!   backoff, [`Failover`] re-placement onto healthy devices, graceful
//!   CPU degradation, and a per-attempt execution watchdog.
//!   [`SolveReport`] records the attempt count and every
//!   [`AttemptFault`]. Under a fixed [`FaultPlan`] the whole
//!   fault/retry/quarantine trajectory is bit-identical at any worker
//!   count; with injection disarmed the engine is byte-identical to one
//!   without the fault layer.
//! * **Serving & alerting** ([`serve`], opt in via
//!   [`EngineConfig::windows`] + [`Engine::serve_observability`]):
//!   rolling time-bucketed windows over the bridged metrics (per-window
//!   throughput, failure rate, queue-wait/solve-wall p50/p95/p99,
//!   per-device utilisation and fault rates), a declarative SLO board
//!   with multi-window burn-rate alerting ([`SloSpec`], [`AlertState`]
//!   timelines, hysteresis), and a std-only blocking HTTP endpoint
//!   ([`ObsServer`]) exposing `/metrics`, `/metrics.json`, `/healthz`,
//!   `/slo`, `/dashboard` and the `/events` SSE journal stream with
//!   exact `Last-Event-ID` resume. Serving is strictly read-only; the
//!   write-only determinism contract is unchanged with serving on.
//!
//! ```
//! use std::sync::Arc;
//! use aco_core::AcoParams;
//! use aco_engine::{Backend, Engine, EngineConfig, Priority, SolveRequest};
//!
//! let engine = Engine::new(EngineConfig::with_workers(4));
//! let inst = Arc::new(aco_tsp::uniform_random("batch", 48, 800.0, 42));
//! let handles: Vec<_> = (0..8)
//!     .map(|seed| {
//!         engine.submit(
//!             SolveRequest::new(Arc::clone(&inst), AcoParams::default().nn(10))
//!                 .backend(Backend::Auto)
//!                 .iterations(5)
//!                 .seed(seed)
//!                 .priority(if seed == 0 { Priority::High } else { Priority::Normal }),
//!         )
//!     })
//!     .collect();
//! // Follow one job's convergence live, then collect everything.
//! let trace: Vec<_> = handles[0].progress().collect();
//! assert_eq!(trace.len(), 5, "one iteration-best event per iteration");
//! let best = handles
//!     .into_iter()
//!     .map(|h| h.wait().expect("job succeeds").best_len)
//!     .min()
//!     .unwrap();
//! assert!(best > 0);
//! // Seven of the eight jobs reused the cached artifacts:
//! assert_eq!(engine.cache_stats().artifact_misses, 1);
//! ```

pub mod auto;
mod board;
pub mod cache;
mod config;
mod obs_bridge;
pub mod scheduler;
pub mod serve;
pub mod solver;
mod supervisor;

pub use aco_core::lifecycle::{
    CancelToken, Colony, IterationEvent, RunOutcome, SolveCtx, StopReason,
};
pub use aco_devices::{
    DeviceAffinity, DeviceId, DeviceModel, DevicePool, DeviceProfile, DeviceSnapshot, HealthEvent,
    HealthPolicy, HealthState, HealthSummary, Placement, PlacementError, PlacementStrategy,
};
pub use aco_faults::{FaultInjector, FaultKind, FaultPlan, FaultRates};
pub use aco_localsearch::{LocalSearch, LsScope, LsScratch};
pub use aco_obs::{
    default_slos, journal_epoch_ms, replay_timeline, sparkline, AlertState, AlertTransition, Clock,
    DynamicsConfig, DynamicsSummary, HistogramSnapshot, IterationSpans, IterationStats,
    JobTimeline, Journal, JournalConfig, KernelFamilySnapshot, ManualClock, MetricsSnapshot,
    MonotonicClock, Quantiles, RawDynamics, SloBoard, SloObjective, SloSpec, SloStatus,
    WindowConfig, WindowStats, LATENCY_BUCKETS_MS,
};
pub use auto::{choose, estimates, resolve, CandidateEstimate};
pub use board::ProgressStream;
pub use cache::{ArtifactCache, CacheStats, InstanceArtifacts};
pub use config::{default_devices, EngineConfig};
pub use scheduler::{Engine, JobHandle, JobId, JobStatus};
pub use serve::ObsServer;
pub use solver::{
    build_solver, solve, AttemptFault, Backend, EngineError, Failover, GpuBinding, GpuDevice,
    JobOutcome, Priority, RetryPolicy, SolveReport, SolveRequest, DEFAULT_PROGRESS_EVENTS,
};

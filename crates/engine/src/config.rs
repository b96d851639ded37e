//! Engine construction options: [`EngineConfig`] and its builders.

use std::sync::Arc;

use aco_devices::{DeviceProfile, HealthPolicy, PlacementStrategy};
use aco_faults::FaultPlan;
use aco_obs::{Clock, SloSpec, WindowConfig};

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
    /// GPU submissions fail with a typed
    /// [`EngineError::Placement`](crate::EngineError::Placement) and
    /// `auto` restricts itself to CPU candidates.
    pub devices: Vec<DeviceProfile>,
    /// Placement policy for jobs without a pinned device.
    pub placement: PlacementStrategy,
    /// Record metrics, per-job timelines and kernel profiles (default
    /// `true`). Never affects results — only whether the engine can
    /// answer "where did the milliseconds go" afterwards. Disabled, all
    /// instrumentation degrades to unarmed branches ([`aco_obs`]).
    pub observability: bool,
    /// Completed [`JobTimeline`](aco_obs::JobTimeline)s retained for
    /// [`Engine::recent_timelines`](crate::Engine::recent_timelines)
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
    /// detector; the stats ride on each `IterationEvent` and fold into
    /// the job's [`JobTimeline`](aco_obs::JobTimeline), from which
    /// [`Engine::metrics`](crate::Engine::metrics) renders per-job gauges
    /// for the timelines still in the ring. Write-only like the rest of
    /// observability: reports, placements and the non-stats event fields
    /// are bit-identical on or off.
    pub dynamics: Option<aco_obs::DynamicsConfig>,
    /// Engine-wide structured event journal (default `None`: off). Armed,
    /// the engine appends one JSONL record per lifecycle event — submit,
    /// placement, failed attempt, iteration sample, stagnation onset,
    /// completion — to a bounded in-memory ring (and optionally a file);
    /// export with [`Engine::journal_export`](crate::Engine::journal_export),
    /// replay with [`aco_obs::replay_timeline`]. Write-only: recording never feeds
    /// back into scheduling or solving. A config without an explicit
    /// [`aco_obs::JournalConfig::epoch_ms`] is anchored once at engine
    /// construction (one wall-clock read; never in the hot path), so
    /// exported journals from different runs can be time-aligned.
    pub journal: Option<aco_obs::JournalConfig>,
    /// Rolling-window aggregation for the serving layer (default `None`:
    /// off, zero cost). Armed, the engine keeps an
    /// [`RollingWindow`](aco_obs::RollingWindow) a sampler feeds with
    /// bridged metrics snapshots
    /// ([`Engine::tick_windows`](crate::Engine::tick_windows) manually, or
    /// the [`Engine::serve_observability`](crate::Engine::serve_observability)
    /// sampler thread) and evaluates the configured SLOs on each tick. Strictly read-side:
    /// windows observe the same snapshots the Prometheus export does and
    /// never feed back into scheduling or solving.
    pub windows: Option<WindowConfig>,
    /// SLO specs evaluated on each window tick; empty means
    /// [`default_slos`](aco_obs::default_slos) when `windows` is armed.
    pub slos: Vec<SloSpec>,
    /// Clock driving the window/SLO layer (default `None`: a
    /// [`MonotonicClock`](aco_obs::MonotonicClock) built at engine
    /// construction). Inject an [`aco_obs::ManualClock`] in tests to make every window and
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

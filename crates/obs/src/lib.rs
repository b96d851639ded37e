//! `aco-obs` — zero-dependency observability for the solve stack:
//! metrics, tracing, and kernel profiling.
//!
//! The paper's contribution is a *measurement-driven* comparison of GPU
//! parallelization strategies; this crate makes the reproduction
//! measurable the same way, as one subsystem instead of scattered
//! fields:
//!
//! * [`MetricsRegistry`] ([`metrics`]) — named counters, gauges and
//!   fixed-bucket histograms. Registration locks once per name; the
//!   returned handles are lock-free atomics, allocation-free on the hot
//!   path. [`MetricsSnapshot`] exports as JSON or Prometheus text.
//! * [`JobTrace`] / [`JobTimeline`] / [`TraceSink`] ([`trace`]) —
//!   hierarchical span recording (engine → job → iteration →
//!   kernel/LS pass) answering "where did the milliseconds go" per job:
//!   queue wait, placement, per-iteration construction/LS/pheromone
//!   spans, cache hits, kernel-family totals.
//! * [`kernel`] — the thread-local launch hook the SIMT simulator
//!   reports per-kernel-family invocations and modeled ms through, and
//!   the engine-wide [`KernelProfiler`] aggregate.
//! * [`dynamics`] — per-iteration *search* statistics (best/mean/stddev
//!   tour lengths, improvement deltas, trail entropy, λ-branching) and
//!   a configurable stagnation detector, computed by the colonies and
//!   folded by the lifecycle driver.
//! * [`Journal`] ([`journal`]) — a bounded engine-wide JSONL event
//!   journal (submit / placement / attempt / iteration-sample /
//!   stagnation / completion, stable flat schemas) with optional file
//!   persistence, epoch anchoring, sequence-cursored export
//!   ([`Journal::export_from`]), and [`replay_timeline`] back into a
//!   [`JobTimeline`] for post-mortems.
//! * [`RollingWindow`] ([`window`]) — time-bucketed rolling aggregation
//!   over metrics snapshots behind an injectable [`Clock`]
//!   ([`MonotonicClock`] in prod, [`ManualClock`] in tests): per-window
//!   throughput, failure rate, latency p50/p95/p99 from the pinned
//!   buckets, per-device utilisation and fault rates.
//! * [`SloSpec`] / [`SloBoard`] ([`slo`]) — declarative objectives with
//!   a multi-window burn-rate evaluator (hysteresis, one-level
//!   step-down) producing an [`AlertState`] timeline, including a
//!   bridge from the `aco-devices` health machine.
//! * [`HttpServer`] ([`http`]) — a std-only blocking `TcpListener`
//!   server (bounded acceptor pool, graceful shutdown) the engine mounts
//!   `/metrics`, `/metrics.json`, `/healthz`, `/slo`, `/dashboard` and
//!   the `/events` SSE journal stream on.
//!
//! **Determinism contract.** Everything here is write-only telemetry:
//! recording never influences scheduling, placement, seeding or solving,
//! so obs-on and obs-off runs produce bit-identical reports, placements
//! and progress sequences (pinned by `tests/observability.rs`).
//!
//! **Disabled cost.** A disabled [`Obs`] hands out handles that hold no
//! cell: every operation is one branch on a `None` — no `Arc` deref, no
//! atomic, no lock.

pub mod dynamics;
pub mod http;
pub mod journal;
pub mod kernel;
pub mod metrics;
pub mod slo;
pub mod trace;
pub mod window;

pub use dynamics::{
    sparkline, DynamicsConfig, DynamicsSummary, DynamicsTracker, IterationStats, RawDynamics,
};
pub use http::{EventSource, HttpServer, ObsHandler, Reply, Request};
pub use journal::{
    journal_epoch_ms, replay_timeline, Journal, JournalConfig, DEFAULT_JOURNAL_CAPACITY,
};
pub use kernel::{install, record, KernelProfiler, KernelScope, KernelSink};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, KernelFamilySnapshot, MetricsRegistry,
    MetricsSnapshot, LATENCY_BUCKETS_MS,
};
pub use slo::{
    default_slos, AlertState, AlertTransition, DeviceHealthView, SloBoard, SloEvaluator,
    SloObjective, SloSpec, SloStatus,
};
pub use trace::{AttemptSpan, IterationSpans, JobTimeline, JobTrace, TraceSink};
pub use window::{
    Clock, DeviceWindow, ManualClock, MonotonicClock, Quantiles, RollingWindow, WindowConfig,
    WindowStats,
};

use std::sync::Arc;

/// Default [`TraceSink`] retention (completed job timelines).
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// Default per-job bound on recorded iteration spans.
pub const DEFAULT_TRACE_ITERATIONS: usize = 512;

/// The observability hub one engine owns: a registry, a trace sink, and
/// the engine-wide kernel profiler, behind one enabled flag.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    metrics: MetricsRegistry,
    sink: TraceSink,
    profiler: Arc<KernelProfiler>,
    trace_iterations: usize,
}

impl Obs {
    /// A hub retaining `trace_capacity` completed timelines; when
    /// `enabled` is false everything degrades to no-ops and
    /// [`Obs::job_trace`] returns `None`.
    pub fn new(enabled: bool, trace_capacity: usize) -> Self {
        Obs {
            enabled,
            metrics: MetricsRegistry::new(enabled),
            sink: TraceSink::new(trace_capacity),
            profiler: Arc::new(KernelProfiler::new()),
            trace_iterations: DEFAULT_TRACE_ITERATIONS,
        }
    }

    /// Is this hub recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The completed-timeline ring.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// The engine-wide kernel profiler (shared with launch-hook sinks).
    pub fn profiler(&self) -> &Arc<KernelProfiler> {
        &self.profiler
    }

    /// A fresh per-job trace, or `None` when disabled (so a disabled
    /// engine allocates nothing per job).
    pub fn job_trace(&self, job: u64) -> Option<Arc<JobTrace>> {
        self.enabled.then(|| Arc::new(JobTrace::new(job, self.trace_iterations)))
    }

    /// Registry snapshot plus the kernel-family profile.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.kernels = self.profiler.snapshot();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_issues_no_traces_and_snapshots_empty() {
        let obs = Obs::new(false, 8);
        assert!(!obs.is_enabled());
        assert!(obs.job_trace(1).is_none());
        obs.metrics().counter("x").inc();
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty() && snap.kernels.is_empty());
    }

    #[test]
    fn snapshot_merges_registry_and_kernel_profile() {
        let obs = Obs::new(true, 8);
        obs.metrics().counter("jobs").add(2);
        obs.profiler().record("tour", 3.5);
        let snap = obs.snapshot();
        assert_eq!(snap.counters, vec![("jobs".to_string(), 2)]);
        assert_eq!(snap.kernels[0].family, "tour");
        assert!(snap.to_prometheus().contains("aco_kernel_invocations_total{family=\"tour\"} 1"));
    }
}

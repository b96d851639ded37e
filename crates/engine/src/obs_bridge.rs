//! The engine's read side: the bridged metrics snapshot, the `/healthz`
//! and `/slo` documents, the textual dashboard, and the rolling-window /
//! SLO glue the serving layer ([`crate::serve`]) and the in-process
//! accessors share.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use aco_obs::metrics::labelled;
use aco_obs::{
    default_slos, sparkline, AlertState, Clock, JobTimeline, Journal, JournalConfig,
    MetricsSnapshot, MonotonicClock, RollingWindow, SloBoard, SloStatus, WindowStats,
};

use crate::config::EngineConfig;
use crate::scheduler::{Engine, Shared};

/// The rolling-window/SLO state one engine owns when
/// `EngineConfig::windows` is armed. Serving-path only: the solve hot
/// path never reads or writes any of it.
pub(crate) struct WindowState {
    clock: Arc<dyn Clock>,
    pub(crate) window: RollingWindow,
    slos: Mutex<SloBoard>,
}

impl WindowState {
    /// The window layer `config` arms (`None` when it arms none): its
    /// clock, or a fresh monotonic one, and its SLOs, or the defaults.
    pub(crate) fn from_config(config: &EngineConfig) -> Option<Self> {
        let window = RollingWindow::new(config.windows.clone()?);
        let clock = config.clock.clone().unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let specs = if config.slos.is_empty() { default_slos() } else { config.slos.clone() };
        Some(WindowState { clock, window, slos: Mutex::new(SloBoard::new(specs)) })
    }
}

/// The engine journal for `cfg`, anchored to the wall clock once, here at
/// construction — never per event in the hot path — so exports from
/// different runs can be time-aligned.
pub(crate) fn anchored_journal(mut cfg: JournalConfig) -> Arc<Journal> {
    cfg.epoch_ms.get_or_insert_with(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
    });
    Arc::new(Journal::new(cfg))
}

impl Shared {
    /// The full engine snapshot behind `Engine::metrics`: the registry's
    /// scheduler series, merged in name order with per-device, per-job
    /// dynamics and cache series rendered here, at snapshot time, from
    /// their native sources. Rendered series are never registered, so
    /// per-job series exist exactly for the timelines still in the ring.
    /// Lives on `Shared` so the serving layer can snapshot without an
    /// `Engine` borrow.
    pub(crate) fn bridged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        if !self.obs.is_enabled() {
            return snap;
        }
        let (mut counters, mut gauges, mut float_gauges) = (Vec::new(), Vec::new(), Vec::new());
        let elapsed = self.started.elapsed().as_secs_f64();
        // Label values flow through `labelled`, which escapes `\`, `"`
        // and newlines per the Prometheus text format — a hostile device
        // name must not corrupt the whole export.
        let dev = |base: &str, name: &str| labelled(base, "device", name);
        for d in self.pool.snapshot() {
            let name = &d.name;
            gauges.push((dev("aco_device_queued", name), d.queued as i64));
            gauges.push((dev("aco_device_running", name), d.running as i64));
            counters.push((dev("aco_device_completed_total", name), d.completed));
            counters.push((dev("aco_device_admission_waits_total", name), d.admission_waits));
            gauges.push((dev("aco_device_busy_ms", name), d.busy_ms as i64));
            gauges.push((dev("aco_device_assigned_ms", name), d.assigned_ms as i64));
            // Utilization in basis points (gauges are integers): busy
            // wall time over the engine's lifetime so far.
            let util_bp =
                if elapsed > 0.0 { (d.busy_ms / (elapsed * 1e3) * 1e4).round() as i64 } else { 0 };
            gauges.push((dev("aco_device_utilization_bp", name), util_bp));
            gauges.push((dev("aco_device_health", name), d.health.code() as i64));
            counters.push((dev("aco_device_quarantines_total", name), d.quarantines));
            counters.push((dev("aco_device_faults_observed_total", name), d.faults_observed));
        }
        // Per-job search-dynamics series for every timeline still in the
        // ring; the fractional ones are float gauges, so they carry the
        // unquantised values.
        for t in self.obs.sink().recent() {
            if let Some(d) = &t.dynamics {
                let job = |base: &str| labelled(base, "job", &t.job.to_string());
                gauges.push((job("aco_job_stagnant_iterations"), d.stagnant_iterations as i64));
                float_gauges.push((job("aco_job_entropy"), d.final_entropy));
                float_gauges.push((job("aco_job_lambda_branching"), d.final_lambda_branching));
            }
        }
        let cs = self.cache.stats();
        counters.push(("aco_cache_artifact_hits_total".into(), cs.artifact_hits));
        counters.push(("aco_cache_artifact_misses_total".into(), cs.artifact_misses));
        counters.push(("aco_cache_decision_hits_total".into(), cs.decision_hits));
        counters.push(("aco_cache_decision_misses_total".into(), cs.decision_misses));
        counters.push((
            "aco_cache_evictions_total".into(),
            cs.artifact_evictions + cs.decision_evictions,
        ));
        merge_by_name(&mut snap.counters, counters);
        merge_by_name(&mut snap.gauges, gauges);
        merge_by_name(&mut snap.float_gauges, float_gauges);
        snap
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

/// Merge series rendered at snapshot time into a registry snapshot's
/// name-sorted list. A name rendered twice (two devices sharing a name)
/// is exported once, with its last value.
fn merge_by_name<V>(series: &mut Vec<(String, V)>, rendered: Vec<(String, V)>) {
    let mut all: BTreeMap<String, V> = std::mem::take(series).into_iter().collect();
    all.extend(rendered);
    *series = all.into_iter().collect();
}

impl Engine {
    /// Whether this engine records metrics, traces and kernel profiles.
    pub fn observability_enabled(&self) -> bool {
        self.shared.obs.is_enabled()
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
    pub fn journal(&self) -> Option<&Journal> {
        self.shared.journal.as_deref()
    }

    /// The retained journal as one JSONL document (oldest line first),
    /// or `None` when no journal is configured. Feed one job's worth to
    /// [`aco_obs::replay_timeline`] to reconstruct its timeline offline.
    pub fn journal_export(&self) -> Option<String> {
        self.shared.journal.as_ref().map(|j| j.export())
    }

    /// Point-in-time snapshot of every engine metric — scheduler
    /// counters/gauges/latency histograms, per-device and cache series
    /// (rendered from their native counters at snapshot time, so neither
    /// subsystem depends on the metrics registry), per-job dynamics
    /// series for the timelines still in the
    /// [`Engine::recent_timelines`] ring, and per-family kernel
    /// profiles. Export via [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`]. Empty when observability is off.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.bridged_snapshot()
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
        let ws = self.shared.windows.as_ref()?;
        ws.window.stats(ws.clock.now_ms(), window_ms)
    }

    /// Current status of every configured SLO (state, burn rates, cause,
    /// transition timeline). Empty when the window layer is off.
    pub fn slo_statuses(&self) -> Vec<SloStatus> {
        let ws = self.shared.windows.as_ref();
        ws.map_or_else(Vec::new, |ws| ws.slos.lock().expect("slo lock").statuses())
    }

    /// The aggregated health document served at `/healthz` (engine
    /// uptime/queue state, per-device health, worst alert state).
    pub fn healthz_json(&self) -> String {
        self.shared.healthz_json()
    }
}

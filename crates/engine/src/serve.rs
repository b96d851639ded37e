//! The engine's HTTP observability endpoint:
//! [`Engine::serve_observability`] mounts the read-side surface —
//! metrics, health, SLOs, dashboard, journal stream — on the std-only
//! [`aco_obs::HttpServer`].
//!
//! Routes:
//!
//! | Path            | Body |
//! |-----------------|------|
//! | `/metrics`      | Prometheus text exposition (full bridged snapshot) |
//! | `/metrics.json` | The same snapshot as JSON (float gauges at full precision) |
//! | `/healthz`      | Aggregated engine + device health + alert states (JSON) |
//! | `/slo`          | SLO board: states, burn rates, causes, transition timelines (JSON) |
//! | `/dashboard`    | The textual live dashboard (`Engine::render_dashboard`) |
//! | `/events`       | Journal as Server-Sent Events; resume with `Last-Event-ID` or `?from=` |
//!
//! Serving is strictly read-only: handlers touch only the same
//! snapshots the in-process accessors do, so results, placements and
//! progress streams are bit-identical with serving on or off (pinned by
//! `tests/obs_serve.rs`). The returned [`ObsServer`] holds its own
//! `Arc` of the engine's shared state, so it may outlive the `Engine`
//! value itself — it just keeps serving the final telemetry.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aco_obs::{EventSource, HttpServer, Journal, ObsHandler, Reply, Request};

use crate::scheduler::{Engine, Shared};

/// Acceptor threads the endpoint serves with (bounds concurrent
/// connections; telemetry clients are few).
const HTTP_THREADS: usize = 2;

/// Sampler cadence ceiling: ticks never sleep longer than this, so
/// shutdown latency stays bounded even with very wide window buckets.
const MAX_SAMPLE_SLEEP: Duration = Duration::from_millis(200);

/// The `/events` feed over the engine journal: sequence numbers are the
/// journal's own (monotone across ring eviction), so a resume cursor is
/// exact for every line still retained.
struct JournalSource(Arc<Journal>);

impl EventSource for JournalSource {
    fn events_from(&self, from_seq: u64) -> Vec<(u64, String)> {
        self.0.export_from(from_seq)
    }
}

/// Routes requests against the engine's shared state (read-only).
struct EngineHandler {
    shared: Arc<Shared>,
}

impl ObsHandler for EngineHandler {
    fn handle(&self, req: &Request) -> Reply {
        match req.path.as_str() {
            "/" => Reply::text(
                "aco-engine observability\n\
                 /metrics       Prometheus text exposition\n\
                 /metrics.json  metrics snapshot as JSON\n\
                 /healthz       engine + device health + alerts (JSON)\n\
                 /slo           SLO board (JSON)\n\
                 /dashboard     textual live dashboard\n\
                 /events        journal as SSE (Last-Event-ID / ?from= resume)\n",
            ),
            "/metrics" => Reply::prometheus(self.shared.bridged_snapshot().to_prometheus()),
            "/metrics.json" => Reply::json(self.shared.bridged_snapshot().to_json()),
            "/healthz" => Reply::json(self.shared.healthz_json()),
            "/slo" => Reply::json(self.shared.slo_json()),
            "/dashboard" => Reply::text(self.shared.render_dashboard()),
            "/events" => match self.shared.journal.clone() {
                Some(journal) => {
                    let from = req
                        .query_param("from")
                        .and_then(|v| v.parse().ok())
                        .or_else(|| {
                            req.header("Last-Event-ID")
                                .and_then(|v| v.parse::<u64>().ok())
                                .map(|id| id + 1)
                        })
                        .unwrap_or(0);
                    let max = req.query_param("max").and_then(|v| v.parse().ok());
                    Reply::Events {
                        from_seq: from,
                        max_events: max,
                        source: Arc::new(JournalSource(journal)),
                    }
                }
                None => Reply::not_found("no journal configured (EngineConfig::journal)"),
            },
            other => Reply::not_found(other),
        }
    }
}

/// A running observability endpoint (HTTP server + window sampler).
/// Dropping it — or calling [`ObsServer::shutdown`] — stops both
/// gracefully; the engine itself is unaffected either way.
pub struct ObsServer {
    http: HttpServer,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.http.local_addr())
            .field("sampler", &self.sampler.is_some())
            .finish()
    }
}

impl ObsServer {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Graceful shutdown: stop the sampler, then the HTTP server (flag,
    /// wake, join — no leaked threads). Also performed on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.sampler.take() {
            let _ = t.join();
        }
        self.http.shutdown();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Engine {
    /// Serve this engine's observability surface on `addr` (use port 0
    /// for an ephemeral port; read it back with
    /// [`ObsServer::local_addr`]). When [`super::EngineConfig::windows`]
    /// is armed, a sampler thread also ticks the rolling-window/SLO
    /// layer at the window's bucket cadence, so `/healthz` and `/slo`
    /// stay current without any in-process driver.
    ///
    /// Strictly read-only — serving cannot change results, placements or
    /// progress. Call it any number of times for multiple endpoints.
    pub fn serve_observability(&self, addr: impl ToSocketAddrs) -> io::Result<ObsServer> {
        let handler = Arc::new(EngineHandler { shared: Arc::clone(&self.shared) });
        let http = HttpServer::bind(addr, handler, HTTP_THREADS)?;
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = if let Some(ws) = &self.shared.windows {
            let tick = Duration::from_millis(ws.window.bucket_ms()).min(MAX_SAMPLE_SLEEP);
            let shared = Arc::clone(&self.shared);
            let stop = Arc::clone(&stop);
            Some(std::thread::Builder::new().name("aco-obs-sampler".to_string()).spawn(
                move || {
                    while !stop.load(Ordering::Acquire) {
                        shared.tick_windows();
                        std::thread::sleep(tick);
                    }
                },
            )?)
        } else {
            None
        };
        Ok(ObsServer { http, stop, sampler })
    }
}

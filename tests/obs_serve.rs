//! Integration tests for the serving/alerting read side: the HTTP
//! observability endpoint ([`Engine::serve_observability`]), the rolling
//! window + SLO burn-rate layer, journal SSE resume, and Prometheus
//! text-format conformance.
//!
//! Pinned acceptance properties:
//!
//! * Serving is strictly **read-only**: solve results, placements and
//!   progress streams are bit-identical with serving + windows + journal
//!   on or off, at 1 and 4 workers, even with live HTTP reads mid-run.
//! * Rolling quantiles and burn-rate alert transitions (Ok → Warning →
//!   Critical → Ok with hysteresis) are deterministic under a
//!   [`ManualClock`] — same inputs, byte-identical SLO board JSON.
//! * `/events` resumed from a mid-stream cursor replays **exactly** the
//!   journal suffix, by sequence number.
//! * `/metrics` byte-parses as valid Prometheus text exposition: one
//!   `# TYPE` per base name, no duplicate series, escaped label values,
//!   cumulative buckets monotone with `_count` equal to the `+Inf`
//!   bucket.
//!
//! Latency assertions are structural (counts, monotonicity), never
//! wall-clock thresholds — the CI container has one core.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use aco_gpu::engine::{
    AlertState, DynamicsConfig, Engine, EngineConfig, JournalConfig, ManualClock, SloBoard,
    SloObjective, SloSpec, WindowConfig, LATENCY_BUCKETS_MS,
};
use aco_gpu::obs::metrics::{labelled, MetricsRegistry};
use aco_gpu::obs::window::{COMPLETED_TOTAL, FAILED_TOTAL, QUEUE_WAIT_MS, SUBMITTED_TOTAL};
use aco_gpu::obs::RollingWindow;
use aco_gpu::tsp;

mod common;
use common::{fingerprint, mixed_batch, BatchFingerprint};

// ---------------------------------------------------------------- helpers

/// Blocking GET over a raw `TcpStream` (no HTTP client dependency).
/// Returns `(status, head, body)`.
fn http_get(addr: SocketAddr, target: &str, extra_header: Option<&str>) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\n{extra}Connection: close\r\n\r\n")
        .expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    let (head, body) = out.split_once("\r\n\r\n").expect("head/body split");
    let status =
        head.split_whitespace().nth(1).and_then(|code| code.parse().ok()).expect("status code");
    (status, head.to_string(), body.to_string())
}

/// Parse an SSE body (`id: <seq>\ndata: <payload>\n\n` frames) back into
/// `(seq, payload)` pairs.
fn parse_sse(body: &str) -> Vec<(u64, String)> {
    body.split("\n\n")
        .filter(|frame| !frame.trim().is_empty())
        .map(|frame| {
            let mut id = None;
            let mut data = None;
            for line in frame.lines() {
                if let Some(v) = line.strip_prefix("id: ") {
                    id = Some(v.parse().expect("numeric id"));
                } else if let Some(v) = line.strip_prefix("data: ") {
                    data = Some(v.to_string());
                }
            }
            (id.expect("frame has id"), data.expect("frame has data"))
        })
        .collect()
}

fn run_batch(workers: usize, serve: bool, inst: &Arc<tsp::TspInstance>) -> BatchFingerprint {
    let config = if serve {
        EngineConfig::with_workers(workers)
            .windows(WindowConfig::default().bucket_ms(25))
            .journal(JournalConfig::default())
    } else {
        EngineConfig::with_workers(workers)
    };
    let engine = Engine::new(config);
    let server = serve.then(|| engine.serve_observability("127.0.0.1:0").expect("bind endpoint"));
    let handles: Vec<_> = mixed_batch(inst).into_iter().map(|r| engine.submit(r)).collect();
    // Live reads mid-run: every route answers while the batch executes,
    // and none of them may perturb the solve.
    if let Some(srv) = &server {
        for path in ["/", "/metrics", "/metrics.json", "/healthz", "/slo", "/dashboard"] {
            let (status, _, _) = http_get(srv.local_addr(), path, None);
            assert_eq!(status, 200, "GET {path} failed mid-run");
        }
    }
    let fp = fingerprint(handles);
    if let Some(mut srv) = server {
        srv.shutdown();
    }
    fp
}

// ---------------------------------------- (a) serving is strictly read-only

/// Acceptance: results, placements and progress sequences are
/// bit-identical with serving + windows + journal on or off, at 1 and 4
/// workers, even with concurrent HTTP reads mid-batch.
#[test]
fn results_identical_with_serving_and_windows_on_off_at_1_and_4_workers() {
    let inst = Arc::new(tsp::uniform_random("serve-det", 32, 500.0, 13));
    let baseline = run_batch(1, false, &inst);
    for (workers, serve) in [(1, true), (4, false), (4, true)] {
        assert_eq!(
            baseline,
            run_batch(workers, serve, &inst),
            "batch changed at workers={workers} serve={serve}"
        );
    }
}

// ------------------- (b) deterministic windows + burn-rate under ManualClock

/// One full scripted drive of a failure-rate SLO over a rolling window:
/// returns the observed state sequence and the final board JSON.
fn drive_burn_cycle() -> (Vec<AlertState>, String) {
    let windows = RollingWindow::new(WindowConfig::default().bucket_ms(1_000).buckets(600));
    let reg = MetricsRegistry::new(true);
    let submitted = reg.counter(SUBMITTED_TOTAL);
    let done = reg.counter(COMPLETED_TOTAL);
    let failed = reg.counter(FAILED_TOTAL);
    let spec = SloSpec::new("avail", SloObjective::FailureRate { budget: 0.01 })
        .windows(10_000, 2_000)
        .burns(1.0, 20.0)
        .hysteresis(0.8, 2);
    let mut board = SloBoard::new(vec![spec]);
    let devices = vec![("gpu0".to_string(), 0u8)];
    let mut states = Vec::new();
    // Scripted traffic, 1 tick/s: 3 s clean, 12 s at 30% failures, then
    // clean recovery. Every quantity is a pure function of this script.
    let script: Vec<(u64, u64)> = std::iter::repeat_n((100, 0), 3)
        .chain(std::iter::repeat_n((70, 30), 12))
        .chain(std::iter::repeat_n((100, 0), 15))
        .collect();
    for (i, (ok, bad)) in script.into_iter().enumerate() {
        let t = i as u64 * 1_000;
        submitted.add(ok + bad);
        done.add(ok);
        failed.add(bad);
        windows.record(t, reg.snapshot());
        states.push(board.evaluate(&windows, &devices, t));
    }
    (states, board.to_json())
}

/// Acceptance: the Ok → Warning → Critical → Warning → Ok cycle (with
/// hysteresis on the way down) is a deterministic function of the
/// recorded frames and evaluation times — two runs agree byte-for-byte.
#[test]
fn burn_rate_transitions_are_deterministic_and_walk_the_full_cycle() {
    let (states, json) = drive_burn_cycle();
    let (states2, json2) = drive_burn_cycle();
    assert_eq!(states, states2, "state sequence is deterministic");
    assert_eq!(json, json2, "board JSON is byte-identical across runs");
    // The cycle shape: starts Ok, visits Warning then Critical (in that
    // order), recovers to Ok, and never skips a level on the way down.
    assert_eq!(states[0], AlertState::Ok);
    assert_eq!(*states.last().unwrap(), AlertState::Ok, "fully recovers");
    let first_warn = states.iter().position(|s| *s == AlertState::Warning).expect("warns");
    let first_crit = states.iter().position(|s| *s == AlertState::Critical).expect("goes critical");
    assert!(first_warn < first_crit, "warning precedes critical");
    let last_crit = states.iter().rposition(|s| *s == AlertState::Critical).unwrap();
    let after: Vec<AlertState> = states[last_crit + 1..].to_vec();
    assert!(
        after.windows(2).all(|w| w[1] <= w[0]),
        "recovery is monotone non-increasing: {after:?}"
    );
    assert!(
        after.contains(&AlertState::Warning),
        "steps down through Warning, never Critical→Ok directly"
    );
    // Hysteresis (clear_after=2): at least 2 evaluations spent in
    // Warning on the way down.
    let warn_tail = after.iter().filter(|s| **s == AlertState::Warning).count();
    assert!(warn_tail >= 2, "hysteresis holds Warning for {warn_tail} evals");
    assert!(json.contains("\"name\":\"avail\""));
    assert!(json.contains("failure-rate burn"));
}

/// Rolling quantiles interpolate deterministically from the pinned
/// buckets: 200 observations in the (5, 10] ms bucket give exactly
/// p50 = 7.5, p95 = 9.75, p99 = 9.95.
#[test]
fn rolling_quantiles_are_exact_under_a_scripted_clock() {
    let windows = RollingWindow::new(WindowConfig::default().bucket_ms(1_000));
    let reg = MetricsRegistry::new(true);
    let wait = reg.histogram(QUEUE_WAIT_MS, &LATENCY_BUCKETS_MS);
    windows.record(0, reg.snapshot());
    for _ in 0..200 {
        wait.observe(7.0); // lands in the (5, 10] bucket
    }
    windows.record(1_000, reg.snapshot());
    let q = windows.quantiles(QUEUE_WAIT_MS, 1_000, 1_000).expect("two frames");
    assert_eq!(q.count, 200);
    assert_eq!(q.p50, 7.5);
    assert_eq!(q.p95, 9.75);
    assert_eq!(q.p99, 9.95);
    // Observations older than the window edge fall out: a later frame
    // with no new observations reports an empty window.
    windows.record(5_000, reg.snapshot());
    let empty = windows.quantiles(QUEUE_WAIT_MS, 5_000, 2_000).expect("frames exist");
    assert_eq!(empty.count, 0, "old observations age out of the window");
}

/// Engine-level windows under an injected [`ManualClock`]: tick counts
/// are exact (7 jobs through both latency histograms), the structural
/// SLOs report Ok, and `/healthz` aggregates it all. The latency SLO is
/// deliberately left off the board here — real queue waits on a loaded
/// 1-core CI box can legitimately exceed any fixed threshold, and this
/// test pins deterministic quantities only.
#[test]
fn engine_window_stats_are_exact_under_manual_clock() {
    let clock = Arc::new(ManualClock::new());
    let structural = vec![
        SloSpec::new("job-availability", SloObjective::FailureRate { budget: 0.01 }),
        SloSpec::new("device-health", SloObjective::DeviceHealth),
        SloSpec::new("device-fault-rate", SloObjective::DeviceFaultRate { budget_per_sec: 0.5 }),
    ];
    let engine = Engine::new(
        EngineConfig::with_workers(2)
            .windows(WindowConfig::default().bucket_ms(1_000))
            .slos(structural)
            .clock(clock.clone()),
    );
    assert!(engine.tick_windows().is_some(), "window layer is armed");
    assert!(engine.window_stats(1_000).is_none(), "one frame is not a window");
    let inst = Arc::new(tsp::uniform_random("serve-win", 32, 500.0, 13));
    let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
    for h in handles {
        h.wait().expect("job solves");
    }
    clock.set(1_000);
    assert_eq!(engine.tick_windows(), Some(AlertState::Ok), "healthy batch stays Ok");
    let stats = engine.window_stats(1_000).expect("two frames bracket the batch");
    assert_eq!(stats.span_ms, 1_000);
    assert_eq!(stats.submitted, 7);
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.failure_rate, 0.0);
    assert_eq!(stats.throughput_per_sec, 7.0);
    assert_eq!(stats.queue_wait.count, 7, "one queue-wait observation per job");
    assert_eq!(stats.solve_wall.count, 7, "one solve-wall observation per job");
    assert!(!stats.devices.is_empty(), "default pool surfaces per-device windows");
    let statuses = engine.slo_statuses();
    assert_eq!(statuses.len(), 3, "configured SLO board");
    assert!(statuses.iter().all(|s| s.state == AlertState::Ok), "{statuses:?}");
    // Configuring windows without explicit SLOs installs the default
    // 4-spec board (availability, queue-wait, health, fault rate).
    let defaulted = Engine::new(EngineConfig::with_workers(1).windows(WindowConfig::default()));
    assert_eq!(defaulted.slo_statuses().len(), 4, "default SLO board");
    let health = engine.healthz_json();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"submitted\":7"));
    assert!(health.contains("\"completed\":7"));
    assert!(health.contains("\"devices_quarantined\":0"));
    assert!(health.contains("\"alerts\":["));
}

// -------------------------------------------- (c) /events SSE exact resume

/// Acceptance: `/events` resumed from a mid-stream cursor (both
/// `?from=` and `Last-Event-ID`) replays exactly the journal suffix,
/// sequence numbers included; `?from=0` starts at the epoch meta line.
#[test]
fn events_sse_resume_replays_exactly_the_journal_suffix() {
    let engine = Engine::new(EngineConfig::with_workers(2).journal(JournalConfig::default()));
    let server = engine.serve_observability("127.0.0.1:0").expect("bind endpoint");
    let addr = server.local_addr();
    let inst = Arc::new(tsp::uniform_random("serve-sse", 32, 500.0, 13));
    let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
    for h in handles {
        h.wait().expect("job solves");
    }
    // The batch is done, so the journal is stable from here on.
    let journal = engine.journal().expect("journal configured");
    let total = journal.next_seq();
    assert!(total >= 8, "batch journals plenty of events (got {total})");
    let mid = total / 2;
    let expect = journal.export_from(mid);
    assert_eq!(expect.first().map(|(seq, _)| *seq), Some(mid), "suffix starts at the cursor");

    let (status, head, body) =
        http_get(addr, &format!("/events?from={mid}&max={}", expect.len()), None);
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/event-stream"), "{head}");
    assert_eq!(parse_sse(&body), expect, "?from= replays exactly the journal suffix");

    // Last-Event-ID: the client saw `mid - 1`, so the stream resumes at
    // `mid` — the identical suffix.
    let (_, _, resumed) = http_get(
        addr,
        &format!("/events?max={}", expect.len()),
        Some(&format!("Last-Event-ID: {}", mid - 1)),
    );
    assert_eq!(parse_sse(&resumed), expect, "Last-Event-ID resumes one past the cursor");

    // From the very beginning: seq 0 is the epoch meta line, and its
    // epoch matches the journal's own anchor.
    let (_, _, first) = http_get(addr, "/events?max=1", None);
    let frames = parse_sse(&first);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, 0, "stream starts at seq 0");
    assert!(frames[0].1.contains("\"ev\":\"meta\""), "{}", frames[0].1);
    let epoch = journal.epoch_ms().expect("engine anchors the journal epoch");
    assert!(frames[0].1.contains(&format!("\"epoch_ms\":{epoch}")), "{}", frames[0].1);
}

/// Without a journal, `/events` is a clean 404 (not a hang or a crash).
#[test]
fn events_without_a_journal_is_a_404() {
    let engine = Engine::new(EngineConfig::with_workers(1));
    let server = engine.serve_observability("127.0.0.1:0").expect("bind endpoint");
    let (status, _, body) = http_get(server.local_addr(), "/events?max=1", None);
    assert_eq!(status, 404);
    assert!(body.contains("no journal configured"), "{body}");
}

// ----------------------------- (d) Prometheus text exposition conformance

/// One parsed sample line: base name, label pairs (unescaped values),
/// raw series key, numeric value.
#[derive(Debug)]
struct Sample {
    base: String,
    labels: Vec<(String, String)>,
    series: String,
    value: f64,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

/// Parse one Prometheus sample line (`name{labels} value`), validating
/// the v0.0.4 text grammar as it goes. Panics (failing the test) on any
/// malformed construct.
fn parse_sample(line: &str) -> Sample {
    let mut chars = line.char_indices().peekable();
    let mut base_end = line.len();
    for (i, c) in chars.by_ref() {
        if c == '{' || c == ' ' {
            base_end = i;
            break;
        }
    }
    let base = &line[..base_end];
    assert!(valid_metric_name(base), "bad metric name in {line:?}");
    let rest = &line[base_end..];
    let (labels, value_str) = if let Some(tail) = rest.strip_prefix('{') {
        let mut labels = Vec::new();
        let mut it = tail.chars().peekable();
        loop {
            // label name
            let mut name = String::new();
            for c in it.by_ref() {
                if c == '=' {
                    break;
                }
                name.push(c);
            }
            assert!(valid_label_name(&name), "bad label name {name:?} in {line:?}");
            assert_eq!(it.next(), Some('"'), "label value must be quoted in {line:?}");
            let mut value = String::new();
            loop {
                match it.next().expect("unterminated label value") {
                    '"' => break,
                    '\\' => match it.next().expect("dangling escape") {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        c => panic!("invalid escape \\{c} in {line:?}"),
                    },
                    c => {
                        assert!((c as u32) >= 0x20, "raw control byte in label value: {line:?}");
                        value.push(c);
                    }
                }
            }
            labels.push((name, value));
            match it.next() {
                Some(',') => continue,
                Some('}') => break,
                other => panic!("expected , or }} after label, got {other:?} in {line:?}"),
            }
        }
        let rest: String = it.collect();
        let value_str = rest.strip_prefix(' ').expect("space before value").to_string();
        (labels, value_str)
    } else {
        (Vec::new(), rest.strip_prefix(' ').expect("space before value").to_string())
    };
    let value: f64 = value_str.trim().parse().unwrap_or_else(|_| {
        panic!("unparseable sample value {value_str:?} in {line:?}");
    });
    let series = line.rsplit_once(' ').expect("series/value split").0.to_string();
    Sample { base: base.to_string(), labels, series, value }
}

/// Validate a full Prometheus text document; returns the parsed samples
/// and the `# TYPE` map.
fn validate_prometheus(text: &str) -> (Vec<Sample>, BTreeMap<String, String>) {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    let mut seen_series = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line inside exposition");
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let mut parts = meta.split(' ');
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            assert!(valid_metric_name(name), "bad TYPE name in {line:?}");
            assert!(
                ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                "unknown TYPE kind in {line:?}"
            );
            let prev = types.insert(name.to_string(), kind.to_string());
            assert!(prev.is_none(), "duplicate # TYPE for {name}");
        } else if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment form: {line:?}");
        } else {
            let sample = parse_sample(line);
            assert!(
                seen_series.insert(sample.series.clone()),
                "duplicate series {:?}",
                sample.series
            );
            samples.push(sample);
        }
    }
    // Every sample's base name traces back to exactly one declared TYPE
    // (histogram children via their _bucket/_sum/_count suffixes).
    for s in &samples {
        let owner = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let stem = s.base.strip_suffix(suf)?;
                (types.get(stem).map(String::as_str) == Some("histogram")).then(|| stem.to_string())
            })
            .unwrap_or_else(|| s.base.clone());
        assert!(types.contains_key(&owner), "sample {:?} has no # TYPE", s.series);
    }
    // Histogram conservation: cumulative buckets monotone, last bucket
    // is +Inf, and _count equals the +Inf bucket.
    let hist_bases: Vec<String> = types
        .iter()
        .filter(|(_, kind)| kind.as_str() == "histogram")
        .map(|(name, _)| name.clone())
        .collect();
    for base in hist_bases {
        let buckets: Vec<&Sample> =
            samples.iter().filter(|s| s.base == format!("{base}_bucket")).collect();
        assert!(!buckets.is_empty(), "histogram {base} has no buckets");
        let mut prev = 0.0;
        for b in &buckets {
            assert!(b.value >= prev, "non-monotone cumulative buckets for {base}");
            prev = b.value;
            assert!(b.labels.iter().any(|(k, _)| k == "le"), "bucket without le label for {base}");
        }
        let last_le = &buckets.last().unwrap().labels.iter().find(|(k, _)| k == "le").unwrap().1;
        assert_eq!(last_le, "+Inf", "last bucket of {base} must be +Inf");
        let count = samples
            .iter()
            .find(|s| s.base == format!("{base}_count"))
            .unwrap_or_else(|| panic!("missing {base}_count"))
            .value;
        assert_eq!(count, buckets.last().unwrap().value, "{base}_count == +Inf bucket");
        assert!(samples.iter().any(|s| s.base == format!("{base}_sum")), "missing {base}_sum");
    }
    (samples, types)
}

/// Acceptance: the full engine exposition — served over HTTP — byte-
/// parses as valid Prometheus text, with one `# TYPE` per base name,
/// no duplicate series, and conserved histogram buckets.
#[test]
fn metrics_endpoint_byte_parses_as_valid_prometheus_text() {
    // Dynamics on, so the entropy/λ-branching gauge pairs (milli +
    // float twin) are in the exposition too.
    let engine = Engine::new(
        EngineConfig::with_workers(2)
            .windows(WindowConfig::default())
            .dynamics(DynamicsConfig::default()),
    );
    let server = engine.serve_observability("127.0.0.1:0").expect("bind endpoint");
    let inst = Arc::new(tsp::uniform_random("serve-prom", 32, 500.0, 13));
    let handles: Vec<_> = mixed_batch(&inst).into_iter().map(|r| engine.submit(r)).collect();
    for h in handles {
        h.wait().expect("job solves");
    }
    let (status, head, body) = http_get(server.local_addr(), "/metrics", None);
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/plain"), "{head}");
    let (samples, types) = validate_prometheus(&body);
    // The in-process render passes the same conformance sweep. (The two
    // documents are snapshots taken at different instants, so
    // time-derived gauges differ — structure, not bytes, is the
    // contract.)
    validate_prometheus(&engine.metrics().to_prometheus());
    // Spot checks: the stable engine surface is present and typed.
    for (name, kind) in [
        (SUBMITTED_TOTAL, "counter"),
        (COMPLETED_TOTAL, "counter"),
        ("aco_engine_queue_wait_ms", "histogram"),
        ("aco_engine_solve_wall_ms", "histogram"),
    ] {
        assert_eq!(types.get(name).map(String::as_str), Some(kind), "{name}");
    }
    // Labelled per-device series parse with their label intact.
    assert!(
        samples.iter().any(|s| s.labels.iter().any(|(k, _)| k == "device")),
        "per-device labelled series present"
    );
    // The per-job dynamics float gauges export.
    assert!(types.keys().any(|n| n == "aco_job_entropy"), "float twin exported");
}

/// `metrics::labelled` escaping survives the round trip through the
/// exposition parser: quotes, backslashes and newlines in a label value
/// come back intact and never corrupt the document.
#[test]
fn labelled_series_escaping_round_trips_through_the_parser() {
    let reg = MetricsRegistry::new(true);
    let hostile = "gpu\"0\\path\nline";
    reg.counter(&labelled("aco_device_faults_observed_total", "device", hostile)).add(3);
    reg.counter("aco_plain_total").add(1);
    let text = reg.snapshot().to_prometheus();
    let (samples, _) = validate_prometheus(&text);
    let labelled_sample =
        samples.iter().find(|s| !s.labels.is_empty()).expect("labelled series present");
    assert_eq!(labelled_sample.labels, vec![("device".to_string(), hostile.to_string())]);
    assert_eq!(labelled_sample.value, 3.0);
}

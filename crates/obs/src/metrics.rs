//! The lock-cheap metrics registry: named counters, gauges and
//! fixed-bucket histograms.
//!
//! Registration (name → cell) takes a `Mutex`, but happens once per
//! metric: the returned handles ([`Counter`], [`Gauge`], [`Histogram`])
//! hold the `Arc`'d cell directly, so every hot-path operation is one or
//! two relaxed atomic RMWs with no lock and no allocation. Handles from a
//! *disabled* registry hold no cell at all — each operation is a single
//! branch on a `None`, so a disabled engine pays ~zero for being
//! instrumentable (pinned by the `obs_overhead` bench section).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The fixed bucket upper bounds (milliseconds) every latency histogram
/// in the workspace uses: queue wait, submit→first-event, job wall time.
/// An implicit `+Inf` bucket follows the last bound. Pinned by
/// `tests/observability.rs` — changing them silently breaks dashboard
/// continuity, so any change must be deliberate.
pub const LATENCY_BUCKETS_MS: [f64; 11] =
    [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

/// A monotonically increasing counter handle. Cheap to clone; clones
/// share the cell. A handle from a disabled registry is a no-op.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that records nothing (what disabled registries return).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A point-in-time gauge handle (set/add/sub). No-op when disabled.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge { cell: None }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Increment by 1.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.cell {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decrement by 1.
    #[inline]
    pub fn dec(&self) {
        if let Some(c) = &self.cell {
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared histogram storage: bounds are fixed at registration, so
/// observation is bucket-search + three relaxed RMWs — allocation-free.
struct HistogramCell {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Box<[f64]>,
    /// Non-cumulative per-bucket counts (`bounds.len() + 1` entries).
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum in integer microseconds (observed values are milliseconds);
    /// integer so concurrent observers need no CAS loop.
    sum_us: AtomicU64,
}

/// A fixed-bucket histogram handle over millisecond observations.
/// No-op when disabled.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram { cell: None }
    }

    /// Record one observation (milliseconds).
    #[inline]
    pub fn observe(&self, ms: f64) {
        let Some(c) = &self.cell else { return };
        // First bucket whose upper bound covers the value (`le`
        // semantics); past the last bound lands in the +Inf bucket.
        let idx = c.bounds.partition_point(|&b| b < ms);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum_us.fetch_add((ms.max(0.0) * 1e3).round() as u64, Ordering::Relaxed);
    }

    /// Total observations (0 for a no-op handle).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCell>),
}

/// The named-metric registry. One per engine; get-or-register by name,
/// then record through the returned handle (see the module docs for the
/// locking story). A registry built disabled hands out no-op handles and
/// snapshots empty.
pub struct MetricsRegistry {
    enabled: bool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A registry; `enabled = false` makes every handle a no-op.
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry { enabled, metrics: Mutex::new(BTreeMap::new()) }
    }

    /// Is this registry recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or register the counter `name`. Returns a no-op handle when
    /// the registry is disabled or `name` is already a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        let mut map = self.metrics.lock().expect("metrics lock");
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match m {
            Metric::Counter(c) => Counter { cell: Some(Arc::clone(c)) },
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Counter::noop()
            }
        }
    }

    /// Get or register the gauge `name` (no-op on kind mismatch).
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        let mut map = self.metrics.lock().expect("metrics lock");
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))));
        match m {
            Metric::Gauge(g) => Gauge { cell: Some(Arc::clone(g)) },
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Gauge::noop()
            }
        }
    }

    /// Get or register the histogram `name` with the given bucket upper
    /// bounds (ascending; an `+Inf` bucket is implicit). The bounds of
    /// the *first* registration win; later calls reuse them.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        let mut map = self.metrics.lock().expect("metrics lock");
        let m = map.entry(name.to_string()).or_insert_with(|| {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Metric::Histogram(Arc::new(HistogramCell {
                bounds: bounds.into(),
                buckets,
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
            }))
        });
        match m {
            Metric::Histogram(h) => Histogram { cell: Some(Arc::clone(h)) },
            _ => {
                debug_assert!(false, "metric {name:?} registered with a different kind");
                Histogram::noop()
            }
        }
    }

    /// Point-in-time copy of every registered metric, sorted by name
    /// (the `BTreeMap` order), so exports are deterministic given the
    /// same recorded values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let map = self.metrics.lock().expect("metrics lock");
        for (name, m) in map.iter() {
            match m {
                Metric::Counter(c) => {
                    snap.counters.push((name.clone(), c.load(Ordering::Relaxed)));
                }
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.load(Ordering::Relaxed))),
                Metric::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    bounds: h.bounds.to_vec(),
                    buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum_ms: h.sum_us.load(Ordering::Relaxed) as f64 / 1e3,
                }),
            }
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .field("metrics", &self.metrics.lock().expect("metrics lock").len())
            .finish()
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Bucket upper bounds (ascending; `+Inf` implicit).
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; `bounds.len() + 1` entries, the
    /// last being the `+Inf` bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (milliseconds).
    pub sum_ms: f64,
}

/// One kernel family's aggregate profile (see `crate::kernel`).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFamilySnapshot {
    /// The kernel's stable name (`aco_simt::Kernel::name`).
    pub family: String,
    /// Launches recorded.
    pub invocations: u64,
    /// Accumulated modeled milliseconds.
    pub modeled_ms: f64,
}

/// A point-in-time export of a whole registry (plus, when produced by
/// [`crate::Obs::snapshot`], the engine-wide kernel-family profile).
/// Entries are sorted by name; serialise with
/// [`MetricsSnapshot::to_json`] or [`MetricsSnapshot::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, value)` per full-precision float gauge (the registry
    /// records integers only; the snapshot's owner renders these).
    pub float_gauges: Vec<(String, f64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
    /// Kernel-family profile (empty unless filled by the owner).
    pub kernels: Vec<KernelFamilySnapshot>,
}

/// The metric name without any trailing `{label="…"}` block (names may
/// embed Prometheus labels, e.g. `aco_device_queued{device="gpu0"}`).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// JSON string escaping: backslash, quote, and control characters (the
/// latter as `\n`/`\r`/`\t` or `\u00XX`). Metric names built from
/// user-supplied labels (device names, instance names) pass through
/// here on export, so hostile names round-trip instead of corrupting
/// the document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus label-*value* escaping (text exposition v0.0.4): backslash
/// → `\\`, quote → `\"`, newline → `\n` (other control characters are
/// also `\n`-folded — the format forbids raw control bytes).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Build a label-embedded metric name — `base{key="value"}` — with the
/// value escaped for the Prometheus text format. Every bridging site
/// that interpolates an external name (device, job, backend) into a
/// metric name must come through here so a name containing `"`, `\`,
/// `{` or a newline cannot break the exposition.
pub fn labelled(base: &str, key: &str, value: &str) -> String {
    format!("{base}{{{key}=\"{}\"}}", escape_label_value(value))
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point so JSON/Prom floats read as floats
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Render as a JSON object: `{"counters":{…},"gauges":{…},
    /// "float_gauges":{…},"histograms":{…},"kernels":{…}}`.
    /// Hand-rolled (the workspace is dependency-free); names are escaped
    /// with [`json_escape`], so label values containing quotes,
    /// backslashes, braces or newlines round-trip.
    pub fn to_json(&self) -> String {
        let esc = json_escape;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", esc(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", esc(name)));
        }
        out.push_str("},\"float_gauges\":{");
        for (i, (name, v)) in self.float_gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", esc(name), fmt_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(|&b| fmt_f64(b)).collect();
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            out.push_str(&format!(
                "\"{}\":{{\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum_ms\":{}}}",
                esc(&h.name),
                bounds.join(","),
                buckets.join(","),
                h.count,
                fmt_f64(h.sum_ms),
            ));
        }
        out.push_str("},\"kernels\":{");
        for (i, k) in self.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"invocations\":{},\"modeled_ms\":{}}}",
                esc(&k.family),
                k.invocations,
                fmt_f64(k.modeled_ms),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Render in the Prometheus text exposition format (v0.0.4): one
    /// `# TYPE` line per metric family, cumulative `_bucket{le=…}` series
    /// plus `_sum`/`_count` per histogram, and one
    /// `aco_kernel_{invocations_total,modeled_ms_total}{family=…}` pair
    /// per profiled kernel family.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = base_name(name).to_string();
            if last_type.as_deref() != Some(base.as_str()) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_type = Some(base);
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.float_gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {}\n", fmt_f64(*v)));
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "histogram");
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = match h.bounds.get(i) {
                    Some(&bound) => fmt_f64(bound),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", h.name));
            }
            out.push_str(&format!("{}_sum {}\n", h.name, fmt_f64(h.sum_ms)));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        if !self.kernels.is_empty() {
            out.push_str("# TYPE aco_kernel_invocations_total counter\n");
            for k in &self.kernels {
                out.push_str(&format!(
                    "aco_kernel_invocations_total{{family=\"{}\"}} {}\n",
                    k.family, k.invocations
                ));
            }
            out.push_str("# TYPE aco_kernel_modeled_ms_total counter\n");
            for k in &self.kernels {
                out.push_str(&format!(
                    "aco_kernel_modeled_ms_total{{family=\"{}\"}} {}\n",
                    k.family,
                    fmt_f64(k.modeled_ms)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noops_and_snapshots_empty() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("x");
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("h", &LATENCY_BUCKETS_MS);
        h.observe(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn handles_share_cells_by_name() {
        let reg = MetricsRegistry::new(true);
        let a = reg.counter("jobs");
        let b = reg.counter("jobs");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(reg.gauge("depth").get(), 1);
    }

    #[test]
    fn histogram_buckets_use_le_semantics() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5); // ≤ 1.0
        h.observe(1.0); // ≤ 1.0 (le is inclusive)
        h.observe(5.0); // ≤ 10.0
        h.observe(99.0); // +Inf
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].buckets, vec![2, 1, 1]);
        assert_eq!(snap.histograms[0].count, 4);
        assert!((snap.histograms[0].sum_ms - 105.5).abs() < 1e-6);
    }

    #[test]
    fn kind_mismatch_degrades_to_noop() {
        let reg = MetricsRegistry::new(true);
        let _c = reg.counter("m");
        // Release builds degrade gracefully; debug builds would assert,
        // so only exercise the release behaviour there.
        if !cfg!(debug_assertions) {
            let g = reg.gauge("m");
            g.set(7);
            assert_eq!(g.get(), 0);
        }
    }

    #[test]
    fn prometheus_export_is_cumulative_and_typed() {
        let reg = MetricsRegistry::new(true);
        reg.counter("aco_jobs_total").add(3);
        reg.gauge("aco_depth").set(2);
        let h = reg.histogram("aco_wait_ms", &[1.0, 5.0]);
        h.observe(0.4);
        h.observe(4.0);
        h.observe(50.0);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE aco_jobs_total counter\naco_jobs_total 3\n"));
        assert!(text.contains("# TYPE aco_depth gauge\naco_depth 2\n"));
        assert!(text.contains("aco_wait_ms_bucket{le=\"1.0\"} 1\n"));
        assert!(text.contains("aco_wait_ms_bucket{le=\"5.0\"} 2\n"));
        assert!(text.contains("aco_wait_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("aco_wait_ms_count 3\n"));
    }

    #[test]
    fn labelled_names_share_one_type_line() {
        let reg = MetricsRegistry::new(true);
        reg.gauge("aco_device_queued{device=\"gpu0\"}").set(1);
        reg.gauge("aco_device_queued{device=\"gpu1\"}").set(2);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE aco_device_queued gauge").count(), 1);
        assert!(text.contains("aco_device_queued{device=\"gpu0\"} 1\n"));
    }

    #[test]
    fn hostile_label_values_escape_for_both_exports() {
        let hostile = "we\"ird\\gpu{0}\nline";
        let reg = MetricsRegistry::new(true);
        reg.gauge(&labelled("aco_device_queued", "device", hostile)).set(3);
        let snap = reg.snapshot();
        let json = snap.to_json();
        // The registered name holds the Prometheus-escaped label value
        // (`we\"ird\\gpu{0}\nline`); JSON export escapes each backslash
        // and quote again, so no raw quote or newline survives in a key.
        assert!(json.contains(r#"we\\\"ird\\\\gpu{0}\\nline"#));
        assert!(!json.contains('\n'));
        let prom = snap.to_prometheus();
        // One sample line, label value escaped, base name intact.
        assert!(prom.contains("# TYPE aco_device_queued gauge\n"));
        assert!(prom.contains("aco_device_queued{device=\"we\\\"ird\\\\gpu{0}\\nline\"} 3\n"));
        // Every line is either a comment or `name{labels} value`; raw
        // newlines inside a label value would break this invariant.
        for line in prom.lines() {
            assert!(
                line.starts_with("# ") || line.rsplit_once(' ').is_some(),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn escape_helpers_cover_the_hostile_set() {
        assert_eq!(json_escape("a\"b\\c\nd\te\r{"), "a\\\"b\\\\c\\nd\\te\\r{");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(labelled("m", "k", "v\"x"), "m{k=\"v\\\"x\"}");
    }

    #[test]
    fn float_gauges_keep_full_precision_in_both_exports() {
        let snap = MetricsSnapshot {
            float_gauges: vec![
                ("aco_job_entropy{job=\"1\"}".to_string(), 0.123_456_789),
                ("aco_whole".to_string(), 2.0),
            ],
            ..MetricsSnapshot::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"float_gauges\":{\"aco_job_entropy{job=\\\"1\\\"}\":0.123456789,"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE aco_job_entropy gauge\n"));
        assert!(prom.contains("aco_job_entropy{job=\"1\"} 0.123456789\n"));
        // Whole values keep a decimal point so they still parse as floats.
        assert!(prom.contains("aco_whole 2.0\n"));
    }

    #[test]
    fn json_round_trips_the_shape() {
        let reg = MetricsRegistry::new(true);
        reg.counter("c").inc();
        reg.histogram("h", &[2.5]).observe(1.0);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{\"c\":1}"));
        assert!(json.contains("\"h\":{\"bounds\":[2.5],\"buckets\":[1,0],\"count\":1"));
    }
}

//! `perfbench` — the repository benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! perfbench --workload cpu-colonies|gpu-kernels|auto-service --seed N
//!           --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! One process per run, pinned to one CPU ([`host`]). Set-up — instance
//! generation, engine construction, endpoint bind, one warm-up job per
//! fixed instance — is timed on its own. Two client threads then drive a
//! closed loop against a one-worker engine.
//!
//! * `--trace 0` sets up [`SETUPS`] times, half before the loop and
//!   half after it (`setup_s` is the median), measures the loop for `S`
//!   seconds on the last set-up before it and prints the end-to-end
//!   metrics. Every end-to-end time is wall time scaled to a quiet host
//!   by reference readings right before and after it ([`host`]).
//! * `--trace 1` measures the loop for `S/3` seconds untraced and `S/3`
//!   traced, each on a freshly set-up engine, replays the traced phase's
//!   jobs layer by layer ([`replay`]) and prints the per-layer metrics.
//!
//! Stdout ends with two JSON lines: the config stamp with the workload's
//! property shares, then the result object.

mod closed_loop;
mod host;
mod replay;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use aco_engine::{Backend, Engine, GpuDevice};

use closed_loop::{check, proc_status, run_phase, JobRecord, Phase, Setup};
use replay::ratio;
use workload::{fnv1a, Mix, Scale, Workload, CLIENTS, FNV_OFFSET, WORKERS};

const USAGE: &str = "usage: perfbench --workload cpu-colonies|gpu-kernels|auto-service \
                     --seed N --seconds S --trace 0|1 [--tiny]";

/// Set-ups per untraced run, half before the measured loop and half
/// after it; `setup_s` is their median. The host's speed can change
/// between the two halves, which keeps one slow second at start-up from
/// setting a run's `setup_s`.
const SETUPS: usize = 8;

/// `(name, value, unit)` in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// CPUs the process could run on before it pinned itself.
    host_cpus: usize,
    /// The CPU it runs on, if pinning worked.
    pinned_cpu: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, 1u64, 10.0f64, false, Scale::Full);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    Ok(Args { workload, seed, seconds, trace, scale, host_cpus, pinned_cpu: None })
}

/// What one run prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
    metrics: Metrics,
    properties: Metrics,
    latency_samples: usize,
    mix_hash: u64,
}

fn main() -> ExitCode {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread starts, so every thread inherits it.
    args.pinned_cpu = host::pin_to_one_cpu();
    let out = if args.trace { traced(&args) } else { untraced(&args) };
    for v in out.violations.iter().take(10) {
        eprintln!("perfbench: check failed: {v}");
    }
    // A run is correct only if every job completed and every report
    // passed its checks.
    let correct = out.failed == 0 && out.violations.is_empty();
    println!(
        "{{\"stamp\": {}, \"properties\": {{{}}}, \"latency_samples\": {}, \"violations\": {}}}",
        stamp(&args, out.mix_hash),
        render(&out.properties),
        out.latency_samples,
        out.violations.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        out.attempted,
        out.failed,
        render(&out.metrics)
    );
    ExitCode::SUCCESS
}

fn untraced(args: &Args) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut set_up = || {
        let before = host::reference_ms();
        let (setup, seconds) = Setup::new(args.workload, args.scale, args.seed);
        setup_s.push(seconds * host::scale(before, host::reference_ms()));
        setup
    };
    let mut setup = set_up();
    for _ in 1..SETUPS / 2 {
        drop(setup);
        setup = set_up();
    }
    let phase = run_phase(&setup, args.seconds, false);
    let hwm_kb = phase.checkpoint_hwm_kb.or_else(|| proc_status("VmHWM:"));
    let peak_rss_mb = hwm_kb.unwrap_or(0) as f64 / 1024.0;
    let verdict = check(&setup.mix, &phase.records);
    let quality = quality_ratio(&setup.mix, &phase.records);
    let mut wall_latency: Vec<f64> =
        phase.records.iter().filter(|r| r.completed().is_some()).map(|r| r.latency_ms).collect();
    let mut properties = properties(&setup.mix, &phase);
    // The unscaled figures, for reading the host's state.
    properties.extend([
        ("wall.jobs_per_s".to_string(), phase.jobs_per_s(), "jobs/s"),
        ("wall.latency_p50_ms".to_string(), quantile(&mut wall_latency, 0.5), "ms"),
        ("wall.latency_p90_ms".to_string(), quantile(&mut wall_latency, 0.9), "ms"),
        ("host.reference_ms".to_string(), phase.reference_ms(), "ms"),
        ("host.rounds".to_string(), phase.rounds.len() as f64, "count"),
    ]);
    let mix_hash = setup.mix.hash();
    drop(setup);
    for _ in SETUPS / 2..SETUPS {
        drop(set_up());
    }
    let metric = |name: &str, value: f64, unit| (name.to_string(), value, unit);
    let metrics = vec![
        metric("jobs_per_s", phase.jobs_per_s_quiet(), "jobs/s"),
        metric("latency_p50_ms", phase.latency_quiet_ms(0.5), "ms"),
        metric("latency_p90_ms", phase.latency_quiet_ms(0.9), "ms"),
        metric("quality_ratio", quality, "ratio"),
        metric("setup_s", quantile(&mut setup_s, 0.5), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Outcome {
        attempted: phase.records.len(),
        failed: verdict.failed,
        violations: verdict.violations,
        metrics,
        properties,
        latency_samples: wall_latency.len(),
        mix_hash,
    }
}

fn traced(args: &Args) -> Outcome {
    // A third untraced, a third traced; the replay takes about a third.
    let part = args.seconds / 3.0;
    let (plain, _) = Setup::new(args.workload, args.scale, args.seed);
    let untraced = run_phase(&plain, part, false);
    let mut verdict = check(&plain.mix, &untraced.records);
    drop(plain);

    let (mut setup, _) = Setup::new(args.workload, args.scale, args.seed);
    let traced = run_phase(&setup, part, true);
    let obs = ObsSide::measure(&setup.engine);
    // Stop the endpoint and its sampler thread before the replay.
    drop(setup.server.take());
    let second = check(&setup.mix, &traced.records);
    verdict.ok += second.ok;
    verdict.failed += second.failed;
    verdict.violations.extend(second.violations);
    // Tracing is write-only: a job must reach the same best length in
    // both phases.
    let untraced_best: HashMap<usize, u64> = untraced
        .records
        .iter()
        .filter_map(|r| r.completed().map(|rep| (r.k, rep.best_len)))
        .collect();
    for r in &traced.records {
        if let (Some(rep), Some(&best)) = (r.completed(), untraced_best.get(&r.k)) {
            if rep.best_len != best {
                verdict.violations.push(format!(
                    "job {}: best_len {} traced but {} untraced",
                    r.k, rep.best_len, best
                ));
            }
        }
    }
    let replay = replay::run(&setup.mix, &traced.records);
    verdict.violations.extend(replay.mismatches.iter().cloned());

    let mut metrics = Metrics::new();
    engine_layers(&setup.mix, &untraced, &traced, &replay, &obs, &mut metrics);
    replay.metrics(&mut metrics);
    let properties = properties(&setup.mix, &traced);
    for (name, value, unit) in &properties {
        if name == "share.local_search" || name.starts_with("share.backend.") {
            metrics.push((name.clone(), *value, *unit));
        }
    }
    Outcome {
        attempted: untraced.records.len() + traced.records.len(),
        failed: verdict.failed,
        violations: verdict.violations,
        metrics,
        properties,
        latency_samples: traced.records.len(),
        mix_hash: setup.mix.hash(),
    }
}

/// Read-side observability costs, measured right after the traced phase.
struct ObsSide {
    snapshot_ms: f64,
    render_ms: f64,
    bytes: f64,
    series: f64,
    journal_export_ms: f64,
}

impl ObsSide {
    fn measure(engine: &Engine) -> ObsSide {
        const REPS: usize = 5;
        let (mut snapshot_ms, mut render_ms, mut export_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut text = String::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let snap = engine.metrics();
            snapshot_ms.push(ms_since(t));
            let t = Instant::now();
            text = snap.to_prometheus();
            render_ms.push(ms_since(t));
            if engine.journal().is_some() {
                let t = Instant::now();
                std::hint::black_box(engine.journal_export());
                export_ms.push(ms_since(t));
            }
        }
        ObsSide {
            snapshot_ms: quantile(&mut snapshot_ms, 0.5),
            render_ms: quantile(&mut render_ms, 0.5),
            bytes: text.len() as f64,
            series: text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count() as f64,
            journal_export_ms: quantile(&mut export_ms, 0.5),
        }
    }
}

/// Per-layer metrics read from the engine side of the traced run.
fn engine_layers(
    mix: &Mix,
    untraced: &Phase,
    traced: &Phase,
    replay: &replay::Replay,
    obs: &ObsSide,
    out: &mut Metrics,
) {
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };
    push("engine.jobs_per_s", traced.jobs_per_s_quiet(), "jobs/s");
    push("engine.jobs", traced.ok() as f64, "count");
    let overhead_pct =
        (ratio(untraced.jobs_per_s_quiet(), traced.jobs_per_s_quiet()) - 1.0) * 100.0;
    push("trace.overhead_pct", overhead_pct, "%");

    let mut instance_ms = mix.instance_ms.clone();
    push("tsp.instance_ms", quantile(&mut instance_ms, 0.5), "ms");

    let (before, after) = traced.cache;
    let hits = (after.artifact_hits - before.artifact_hits) as f64;
    let lookups = hits + (after.artifact_misses - before.artifact_misses) as f64;
    push("cache.hit_share", ratio(hits, lookups), "fraction");
    let evictions = after.artifact_evictions + after.decision_evictions
        - before.artifact_evictions
        - before.decision_evictions;
    push("cache.evictions", evictions as f64, "count");
    let hits = (after.decision_hits - before.decision_hits) as f64;
    let lookups = hits + (after.decision_misses - before.decision_misses) as f64;
    push("auto.decision_hit_share", ratio(hits, lookups), "fraction");
    push("auto.gpu_share", auto_gpu_share(mix, &traced.records), "fraction");

    let timelines: Vec<_> = traced.records.iter().filter_map(|r| r.timeline.as_ref()).collect();
    let mut queue: Vec<f64> = timelines.iter().map(|t| t.queue_wait_ms).collect();
    let mut first: Vec<f64> = timelines.iter().filter_map(|t| t.first_event_ms).collect();
    push("scheduler.queue_wait_p50_ms", quantile(&mut queue, 0.5), "ms");
    push("scheduler.first_event_p50_ms", quantile(&mut first, 0.5), "ms");
    // Engine-side wall of a job (latency minus queue wait) not covered by
    // the replayed layer calls for the same job.
    let (mut overhead, mut engine_ms, mut jobs) = (0.0, 0.0, 0.0);
    for r in &traced.records {
        if let (Some(t), Some(&layers)) = (&r.timeline, replay.job_ms.get(&r.k)) {
            let wall = r.latency_ms - t.queue_wait_ms;
            overhead += wall - layers;
            engine_ms += wall;
            jobs += 1.0;
        }
    }
    push("scheduler.overhead_ms_per_job", ratio(overhead, jobs), "ms");
    push("scheduler.unattributed_share", ratio(overhead, engine_ms), "fraction");

    let (before, after) = &traced.devices;
    let wall_ms = traced.wall_s() * 1e3;
    let utils: Vec<f64> = after
        .iter()
        .map(|d| {
            let busy0 = before.iter().find(|b| b.id == d.id).map_or(0.0, |b| b.busy_ms);
            (d.busy_ms - busy0) / wall_ms
        })
        .collect();
    push("devices.util_max", utils.iter().copied().fold(0.0, f64::max), "fraction");
    push("devices.util_min", utils.iter().copied().reduce(f64::min).unwrap_or(0.0), "fraction");
    let depth = after.iter().map(|d| d.peak_depth).max().unwrap_or(0);
    push("devices.peak_depth", depth as f64, "count");

    let modeled: Vec<f64> = traced
        .records
        .iter()
        .filter_map(JobRecord::completed)
        .filter(|rep| !matches!(family(&rep.backend), "gpu" | "gpu_acs"))
        .map(|rep| rep.modeled_ms / rep.iterations as f64)
        .collect();
    push("cpu.modeled_ms_per_iter", ratio(modeled.iter().sum(), modeled.len() as f64), "ms");

    push("obs.snapshot_ms", obs.snapshot_ms, "ms");
    push("obs.render_ms", obs.render_ms, "ms");
    push("obs.metrics_bytes", obs.bytes, "bytes");
    push("obs.series", obs.series, "count");
    let mut scrapes = traced.scrapes_ms.clone();
    push("obs.scrape_p50_ms", quantile(&mut scrapes, 0.5), "ms");
    push("obs.journal_export_ms", obs.journal_export_ms, "ms");
    push("obs.threads_peak", traced.threads_peak as f64, "count");
}

/// The backend families job shares are reported over.
const FAMILIES: [&str; 6] = ["cpu_seq", "cpu_par", "cpu_acs", "cpu_mmas", "gpu", "gpu_acs"];

fn family(backend: &Backend) -> &'static str {
    match backend {
        Backend::CpuSequential { .. } => "cpu_seq",
        Backend::CpuParallel { .. } => "cpu_par",
        Backend::CpuAcs(_) => "cpu_acs",
        Backend::CpuMmas(_) => "cpu_mmas",
        Backend::Gpu { .. } => "gpu",
        Backend::GpuAcs { .. } => "gpu_acs",
        Backend::Auto => "auto",
    }
}

/// Share of completed `Auto` jobs that resolved to a GPU backend.
fn auto_gpu_share(mix: &Mix, records: &[JobRecord]) -> f64 {
    let (mut auto, mut gpu) = (0.0, 0.0);
    for r in records {
        if let Some(rep) = r.completed() {
            if matches!(mix.job(r.k).backend, Backend::Auto) {
                auto += 1.0;
                if matches!(family(&rep.backend), "gpu" | "gpu_acs") {
                    gpu += 1.0;
                }
            }
        }
    }
    ratio(gpu, auto)
}

/// The workload properties later claims may cite: cache hit shares,
/// `Auto` → GPU share, local-search share and job share per backend.
fn properties(mix: &Mix, phase: &Phase) -> Metrics {
    let (before, after) = phase.cache;
    let share = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let artifact = share(
        after.artifact_hits - before.artifact_hits,
        after.artifact_misses - before.artifact_misses,
    );
    let decision = share(
        after.decision_hits - before.decision_hits,
        after.decision_misses - before.decision_misses,
    );
    let jobs = phase.records.len() as f64;
    let ls = phase.records.iter().filter(|r| mix.job(r.k).local_search.runs_per_iteration());
    let mut out = vec![
        ("share.artifact_hit".to_string(), artifact, "fraction"),
        ("share.decision_hit".to_string(), decision, "fraction"),
        ("share.auto_gpu".to_string(), auto_gpu_share(mix, &phase.records), "fraction"),
        ("share.local_search".to_string(), ratio(ls.count() as f64, jobs), "fraction"),
    ];
    let done: Vec<&str> = phase
        .records
        .iter()
        .filter_map(|r| r.completed().map(|rep| family(&rep.backend)))
        .collect();
    for f in FAMILIES {
        let count = done.iter().filter(|&&d| d == f).count() as f64;
        out.push((format!("share.backend.{f}"), ratio(count, done.len() as f64), "fraction"));
    }
    // Which simulated model the GPU jobs ran on.
    let (mut gpu, mut m2050) = (0.0, 0.0);
    for rep in phase.records.iter().filter_map(JobRecord::completed) {
        if let Backend::Gpu { device, .. } | Backend::GpuAcs { device, .. } = &rep.backend {
            gpu += 1.0;
            m2050 += f64::from(u8::from(*device == GpuDevice::TeslaM2050));
        }
    }
    out.push(("share.gpu_on_m2050".to_string(), ratio(m2050, gpu), "fraction"));
    out
}

/// Mean over completed jobs of `best_len` ÷ the instance's greedy
/// nearest-neighbour tour length (computed after timing).
fn quality_ratio(mix: &Mix, records: &[JobRecord]) -> f64 {
    let mut greedy: HashMap<usize, u64> = HashMap::new();
    let (mut sum, mut count) = (0.0, 0.0);
    for r in records {
        if let Some(rep) = r.completed() {
            let i = mix.job(r.k).instance;
            let nn = *greedy.entry(i).or_insert_with(|| {
                let inst = mix.instance(i);
                aco_tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix())
            });
            sum += rep.best_len as f64 / nn as f64;
            count += 1.0;
        }
    }
    ratio(sum, count)
}

/// Linear-interpolated quantile (0 for no samples).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn render(metrics: &Metrics) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The config stamp every result carries. Comparisons refuse results
/// whose stamps differ in anything but `rev` and `seed`.
fn stamp(args: &Args, mix_hash: u64) -> String {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"tiny\": {}, \"host_cpus\": {}, \"pinned\": {}, \"workers\": {WORKERS}, \
         \"clients\": {CLIENTS}, \"mix_hash\": \"{mix_hash:016x}\", \"profile\": \"{profile}\"}}",
        source_rev(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale == Scale::Tiny,
        args.host_cpus,
        args.pinned_cpu.is_some(),
    )
}

/// Content hash of the sources the benchmark builds from (the checkout
/// it runs in need not be a git repository): every file under `crates/`
/// and this crate's `src/`, plus both manifests and the lock file.
fn source_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut h = FNV_OFFSET;
    for part in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml", "perfbench/src"] {
        hash_tree(&root, &root.join(part), &mut h);
    }
    format!("src-{h:016x}")
}

fn hash_tree(root: &Path, path: &Path, h: &mut u64) {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        entries.sort();
        for entry in entries {
            hash_tree(root, &entry, h);
        }
    } else if let Ok(bytes) = std::fs::read(path) {
        let rel = path.strip_prefix(root).unwrap_or(path);
        *h = fnv1a(rel.to_string_lossy().as_bytes(), *h);
        *h = fnv1a(&bytes, *h);
    }
}

//! Engine throughput benchmark → `BENCH_engine.json`.
//!
//! ```text
//! engine_bench [--jobs N] [--workers W1,W2] [--n CITIES] [--iters I]
//!              [--label S] [--append] [--out FILE]
//! engine_bench --check FILE [--tolerance T]
//! ```
//!
//! Submits a fixed, seeded batch of solve jobs to the engine at several
//! worker counts and records wall-clock throughput plus cache
//! effectiveness. The JSON artifact holds a **history**: one entry per
//! PR (label + batch shape + per-worker-count runs), so the perf
//! trajectory across PRs stays in the file. `--append` keeps existing
//! entries (the legacy single-entry format is converted in place);
//! without it the file is replaced by a one-entry history.
//!
//! `--check` is the CI regression gate: it re-runs the **last** history
//! entry's batch at 1 worker and fails (exit 1) if fresh throughput
//! drops more than `--tolerance` (default 0.20) below that entry's
//! 1-worker run. Same-machine comparisons are meaningful; cross-machine
//! ones are advisory — which is why the gate re-measures instead of
//! trusting absolute numbers.

use std::sync::Arc;
use std::time::Instant;

use aco_bench::json::Json;
use aco_core::cpu::TourPolicy;
use aco_core::gpu::{PheromoneStrategy, TourStrategy};
use aco_core::AcoParams;
use aco_engine::{
    Backend, DeviceProfile, DynamicsConfig, Engine, EngineConfig, Failover, FaultPlan, GpuDevice,
    JournalConfig, LocalSearch, LsScope, RetryPolicy, SolveRequest, WindowConfig,
};

/// Submit→first-progress-event latency (ms): how long after `submit`
/// a caller's `JobHandle::progress()` stream delivers its first
/// iteration-best event on an otherwise idle 1-worker engine. The
/// artifact cache is warmed first, so this prices the lifecycle path
/// (queue → schedule → first colony iteration → event), not NN-list
/// construction. Minimum of five samples (latency floors, like all
/// latency benches, are min-stable).
fn measure_first_event_ms(n: usize, iters: usize) -> f64 {
    let engine = Engine::new(EngineConfig::with_workers(1));
    let inst = Arc::new(aco_tsp::uniform_random("bench-latency", n, 1000.0, 0xA1));
    let params = AcoParams::default().nn(15.min(n - 1)).ants(n.min(32));
    let req = |seed: u64| {
        SolveRequest::new(Arc::clone(&inst), params.clone())
            .backend(Backend::CpuSequential { policy: TourPolicy::NearestNeighborList })
            .iterations(iters)
            .seed(seed)
    };
    engine.submit(req(0)).wait().expect("warm-up job");
    (1..=5)
        .map(|s| {
            let t0 = Instant::now();
            let h = engine.submit(req(s));
            h.progress().next().expect("job emits progress");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            h.wait().expect("job finishes");
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

struct Args {
    jobs: usize,
    workers: Vec<usize>,
    n: usize,
    iters: usize,
    label: String,
    append: bool,
    check: Option<std::path::PathBuf>,
    tolerance: f64,
    out: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 12,
        workers: vec![1, 2, 4],
        n: 48,
        iters: 5,
        label: "dev".into(),
        append: false,
        check: None,
        tolerance: 0.20,
        out: "BENCH_engine.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--jobs" => args.jobs = next("--jobs").parse().expect("--jobs N"),
            "--workers" => {
                args.workers = next("--workers")
                    .split(',')
                    .map(|w| w.parse().expect("--workers W1,W2,..."))
                    .collect();
            }
            "--n" => args.n = next("--n").parse().expect("--n CITIES"),
            "--iters" => args.iters = next("--iters").parse().expect("--iters I"),
            "--label" => {
                args.label = next("--label");
                // Labels are interpolated into the JSON artifact; keep
                // them to characters that need no escaping.
                if args.label.is_empty()
                    || !args.label.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
                {
                    eprintln!("--label must be non-empty [A-Za-z0-9._-]: {:?}", args.label);
                    std::process::exit(2);
                }
            }
            "--append" => args.append = true,
            "--check" => args.check = Some(next("--check").into()),
            "--tolerance" => args.tolerance = next("--tolerance").parse().expect("--tolerance T"),
            "--out" => args.out = next("--out").into(),
            other => {
                eprintln!(
                    "unknown arg {other}\nusage: engine_bench [--jobs N] [--workers W1,W2] \
                     [--n CITIES] [--iters I] [--label S] [--append] [--out FILE]\n       \
                     engine_bench --check FILE [--tolerance T]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// The benchmark batch: a seed sweep over three backends on two shared
/// instances, so the artifact cache is exercised the way real parameter
/// studies exercise it.
fn batch(jobs: usize, n: usize, iters: usize) -> Vec<SolveRequest> {
    let a = Arc::new(aco_tsp::uniform_random("bench-a", n, 1000.0, 0xBE));
    let b = Arc::new(aco_tsp::uniform_random("bench-b", n + n / 2, 1000.0, 0xEF));
    let params = AcoParams::default().nn(15.min(n - 1)).ants(n.min(32));
    (0..jobs)
        .map(|j| {
            let inst = if j % 2 == 0 { Arc::clone(&a) } else { Arc::clone(&b) };
            let backend = match j % 3 {
                0 => Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
                1 => Backend::CpuParallel { policy: TourPolicy::NearestNeighborList, threads: 4 },
                _ => Backend::Auto,
            };
            SolveRequest::new(inst, params.clone())
                .backend(backend)
                .iterations(iters)
                .seed(j as u64)
        })
        .collect()
}

#[derive(Debug, Clone)]
struct RunRec {
    workers: usize,
    jobs: usize,
    ok: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
    best: u64,
    artifact_hits: u64,
    artifact_misses: u64,
    decision_hits: u64,
    decision_misses: u64,
    /// Cache-pressure counters (0 in pre-PR-4 entries, which did not
    /// record them).
    artifact_evictions: u64,
    decision_evictions: u64,
}

/// Per-device utilisation of the GPU sharding run.
#[derive(Debug, Clone)]
struct DeviceRec {
    name: String,
    model: String,
    jobs: u64,
    busy_ms: f64,
    /// `busy_ms / wall_ms` of the sharding run (can exceed 1 only with
    /// more workers than devices; on this 1-worker run it is ≤ 1).
    util: f64,
    max_depth: usize,
    assigned_ms: f64,
}

/// The PR-4 device-pool section of a history entry: a 12-job explicit
/// GPU batch sharded over a 4-device pool (2 × C1060, 2 × M2050), with
/// per-device utilisation and peak run-queue depth.
#[derive(Debug, Clone)]
struct DevicesRec {
    pool: usize,
    jobs: usize,
    wall_ms: f64,
    devices_used: usize,
    per_device: Vec<DeviceRec>,
}

/// The PR-5 local-search section of a history entry: the same seeded
/// batch solved twice — construction only vs per-iteration `TwoOptNn` on
/// the iteration best — recording the quality / throughput pair and the
/// summed `local_search_improvement` telemetry.
#[derive(Debug, Clone)]
struct LocalSearchRec {
    strategy: String,
    scope: String,
    jobs: usize,
    off_wall_ms: f64,
    off_best: u64,
    on_wall_ms: f64,
    on_best: u64,
    improvement: u64,
}

/// The PR-6 observability-overhead section: the same seeded batch run
/// with observability off and on (the default), 1 worker, recording the
/// throughput pair. The `--check` gate treats overhead as **advisory**
/// (warn beyond 5%, never fail): single-run wall clocks on a 1-core
/// container are too noisy for a hard sub-5% gate.
#[derive(Debug, Clone)]
struct ObsOverheadRec {
    jobs: usize,
    off_jobs_per_sec: f64,
    on_jobs_per_sec: f64,
    /// `(off/on − 1) × 100`: percentage throughput lost to observability.
    overhead_pct: f64,
}

/// The PR-10 serving section: the same seeded batch run with the
/// observability endpoint off and on (rolling windows + journal + a live
/// idle HTTP server + its sampler thread), 1 worker. Serving is strictly
/// read-only, so both runs do identical solve work; the delta prices the
/// sampler's periodic snapshot bridging plus the idle endpoint threads.
/// The `--check` gate treats it as **advisory** (warn beyond 5%, never
/// fail), like every wall-clock pair on the 1-core container.
#[derive(Debug, Clone)]
struct ObsServeRec {
    jobs: usize,
    off_jobs_per_sec: f64,
    on_jobs_per_sec: f64,
    /// `(off/on − 1) × 100`: percentage throughput lost to idle serving.
    overhead_pct: f64,
}

/// The PR-9 search-dynamics section: the same seeded batch run with the
/// dynamics layer + event journal off and on, 1 worker. Dynamics adds an
/// O(n²) trail scan per iteration, so unlike the observability pair this
/// prices real extra work — the `--check` gate still treats it as
/// **advisory** (warn beyond 5%, never fail) because single-run 1-core
/// wall clocks cannot hard-gate at that resolution.
#[derive(Debug, Clone)]
struct DynamicsRec {
    jobs: usize,
    off_jobs_per_sec: f64,
    on_jobs_per_sec: f64,
    /// `(off/on − 1) × 100`: percentage throughput lost to dynamics +
    /// journal recording.
    overhead_pct: f64,
    /// Journal lines the on-run recorded (sanity: the sink saw the batch).
    journal_lines: u64,
}

/// The PR-7 fault-tolerance section: the same seeded GPU batch run
/// three ways — default engine, retry supervision armed but never
/// triggered (prices the supervision plumbing; the `--check` gate warns
/// beyond 5%, advisory like the observability pair), and a flaky-device
/// fault plan actually firing (recovery throughput, for the record).
#[derive(Debug, Clone)]
struct FaultsRec {
    jobs: usize,
    plain_jobs_per_sec: f64,
    supervised_jobs_per_sec: f64,
    /// `max(0, (plain/supervised − 1)) × 100`: throughput lost to idle
    /// retry supervision. Positive always means *regression*; runs where
    /// the supervised batch measured faster than plain (1-core wall-clock
    /// noise — the PR-7 entry recorded one as "-7.4% overhead") clamp to
    /// 0 instead of recording a negative "overhead".
    overhead_pct: f64,
    faulted_jobs_per_sec: f64,
    /// Jobs in the faulted run that needed more than one attempt.
    retried_jobs: u64,
}

/// The PR-8 batched local-search section: one explicit GPU job running
/// per-iteration `TwoOptNn` over **every** ant, with the engine's kernel
/// profiler counting per-family launches. The windowed `two_opt_*`
/// family covers the whole colony in one window, so each iteration's
/// pass issues `pos + propose + select` per round plus one `apply` per
/// round that moved something: exactly `4 × rounds − iterations`
/// launches in total, independent of the colony size. Looping the
/// window ant by ant would end every pass with `m` non-moving rounds
/// instead of one and break that count. Launch counts are
/// deterministic, so the `--check` gate enforces them hard, unlike the
/// wall-clock advisories.
#[derive(Debug, Clone)]
struct BatchedLsRec {
    ants: usize,
    iterations: usize,
    /// Total best-improvement rounds (= `two_opt_pos` launches).
    rounds: u64,
    /// Total `two_opt_*` launches (exactly `4 × rounds − iterations`).
    batched_launches: u64,
    /// Device `or_opt` family launches from a second Or-opt job (the
    /// pre-PR-8 host-fallback path launched none).
    or_opt_launches: u64,
    wall_ms: f64,
}

impl BatchedLsRec {
    /// The launch count of one window per pass: `pos + propose +
    /// select` every round, `apply` in every round but the last.
    fn exact_launches(&self) -> u64 {
        (4 * self.rounds).saturating_sub(self.iterations as u64)
    }
}

#[derive(Debug, Clone)]
struct HistEntry {
    label: String,
    jobs: usize,
    n: usize,
    iterations: usize,
    host_cpus: usize,
    /// Submit→first-progress-event latency, ms (0 in pre-lifecycle
    /// entries, which had no progress streams).
    first_event_ms: f64,
    runs: Vec<RunRec>,
    /// Device-pool sharding telemetry (absent in pre-PR-4 entries).
    devices: Option<DevicesRec>,
    /// Local-search quality/throughput pair (absent in pre-PR-5 entries).
    local_search: Option<LocalSearchRec>,
    /// Observability on/off throughput pair (absent in pre-PR-6 entries).
    obs_overhead: Option<ObsOverheadRec>,
    /// Fault-tolerance throughput triple (absent in pre-PR-7 entries).
    faults: Option<FaultsRec>,
    /// Batched-LS launch accounting (absent in pre-PR-8 entries).
    batched_ls: Option<BatchedLsRec>,
    /// Search-dynamics on/off throughput pair (absent in pre-PR-9 entries).
    dynamics: Option<DynamicsRec>,
    /// Serving on/off throughput pair (absent in pre-PR-10 entries).
    obs_serve: Option<ObsServeRec>,
}

fn measure(workers: usize, jobs: usize, n: usize, iters: usize) -> RunRec {
    let engine = Engine::new(EngineConfig::with_workers(workers));
    // Instance generation (O(n^2) matrices) stays outside the timed
    // region; wall_ms measures engine throughput only.
    let reqs = batch(jobs, n, iters);
    let t0 = Instant::now();
    let reports = engine.run_batch(reqs);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ok = reports.iter().filter(|r| r.is_ok()).count();
    let best: u64 =
        reports.iter().filter_map(|r| r.as_ref().ok().map(|rep| rep.best_len)).min().unwrap_or(0);
    let stats = engine.cache_stats();
    let rec = RunRec {
        workers,
        jobs,
        ok,
        wall_ms,
        jobs_per_sec: ok as f64 / (wall_ms / 1e3),
        best,
        artifact_hits: stats.artifact_hits,
        artifact_misses: stats.artifact_misses,
        decision_hits: stats.decision_hits,
        decision_misses: stats.decision_misses,
        artifact_evictions: stats.artifact_evictions,
        decision_evictions: stats.decision_evictions,
    };
    println!(
        "workers {workers}: {ok}/{jobs} jobs in {wall_ms:.1} ms ({:.1} jobs/s), best {best}, \
         cache {}h/{}m/{}e (decisions {}h/{}m/{}e)",
        rec.jobs_per_sec,
        rec.artifact_hits,
        rec.artifact_misses,
        rec.artifact_evictions,
        rec.decision_hits,
        rec.decision_misses,
        rec.decision_evictions,
    );
    rec
}

/// The device-pool sharding run: a 12-job explicit GPU batch (alternating
/// C1060/M2050 model jobs) on a 4-device pool, 1 worker (so the numbers
/// are stable on a 1-CPU container). Placement telemetry — per-device job
/// counts, peak run-queue depth, assigned backlog — is deterministic;
/// busy/utilisation are wall-clock observability.
fn measure_devices(n: usize, iters: usize) -> DevicesRec {
    let pool = vec![
        DeviceProfile::tesla_c1060("g0"),
        DeviceProfile::tesla_c1060("g1").sm_count(15),
        DeviceProfile::tesla_m2050("f0"),
        DeviceProfile::tesla_m2050("f1"),
    ];
    let pool_size = pool.len();
    let engine = Engine::new(EngineConfig::with_workers(1).devices(pool));
    let inst = Arc::new(aco_tsp::uniform_random("bench-gpu", n, 1000.0, 0xD0));
    let params = AcoParams::default().nn(15.min(n - 1)).ants(n.min(32));
    let jobs = 12;
    let t0 = Instant::now();
    let reports = engine.run_batch((0..jobs).map(|j| {
        let device = if j % 2 == 0 { GpuDevice::TeslaC1060 } else { GpuDevice::TeslaM2050 };
        SolveRequest::new(Arc::clone(&inst), params.clone())
            .backend(Backend::Gpu {
                device,
                tour: TourStrategy::NNList,
                pheromone: PheromoneStrategy::AtomicShared,
            })
            .iterations(iters)
            .seed(j as u64)
    }));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(reports.iter().all(|r| r.is_ok()), "GPU sharding batch must solve");
    let per_device: Vec<DeviceRec> = engine
        .device_stats()
        .into_iter()
        .map(|d| DeviceRec {
            name: d.name,
            model: d.model.label().to_string(),
            jobs: d.completed,
            busy_ms: d.busy_ms,
            util: if wall_ms > 0.0 { d.busy_ms / wall_ms } else { 0.0 },
            max_depth: d.peak_depth,
            assigned_ms: d.assigned_ms,
        })
        .collect();
    let devices_used = per_device.iter().filter(|d| d.jobs > 0).count();
    for d in &per_device {
        println!(
            "device {} ({}): {} jobs, busy {:.1} ms (util {:.2}), max depth {}, assigned {:.2} ms",
            d.name, d.model, d.jobs, d.busy_ms, d.util, d.max_depth, d.assigned_ms
        );
    }
    println!(
        "device pool: {jobs} GPU jobs sharded over {devices_used}/{pool_size} devices in \
         {wall_ms:.1} ms"
    );
    assert!(devices_used >= 2, "a 12-job GPU batch must actively share >= 2 devices");
    DevicesRec { pool: pool_size, jobs, wall_ms, devices_used, per_device }
}

/// The local-search pair: one seeded 8-job batch (6 CPU-sequential + 2
/// explicit-GPU jobs, so the `two_opt` kernel family is exercised) run
/// with local search off, then with per-iteration `TwoOptNn` on the
/// iteration best. 1 worker for stable wall numbers.
fn measure_local_search(n: usize, iters: usize) -> LocalSearchRec {
    let inst = Arc::new(aco_tsp::uniform_random("bench-ls", n, 1000.0, 0x15));
    let params = AcoParams::default().nn(15.min(n - 1)).ants(n.min(32));
    let jobs = 8;
    let batch = |ls: LocalSearch| {
        (0..jobs)
            .map(|j| {
                let backend = if j < 6 {
                    Backend::CpuSequential { policy: TourPolicy::NearestNeighborList }
                } else {
                    Backend::Gpu {
                        device: GpuDevice::TeslaM2050,
                        tour: TourStrategy::NNList,
                        pheromone: PheromoneStrategy::AtomicShared,
                    }
                };
                SolveRequest::new(Arc::clone(&inst), params.clone())
                    .backend(backend)
                    .iterations(iters)
                    .seed(j as u64)
                    .local_search(ls)
            })
            .collect::<Vec<_>>()
    };
    let run = |ls: LocalSearch| {
        let engine = Engine::new(EngineConfig::with_workers(1));
        let t0 = Instant::now();
        let reports = engine.run_batch(batch(ls));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut best = u64::MAX;
        let mut improvement = 0u64;
        for r in &reports {
            let r = r.as_ref().expect("local-search batch must solve");
            best = best.min(r.best_len);
            improvement += r.local_search_improvement;
        }
        (wall_ms, best, improvement)
    };
    let (off_wall_ms, off_best, off_imp) = run(LocalSearch::None);
    assert_eq!(off_imp, 0, "no improvement without local search");
    let (on_wall_ms, on_best, improvement) = run(LocalSearch::TwoOptNn);
    // Per-iteration LS changes the pheromone trajectory, so neither
    // property is guaranteed for arbitrary --n/--iters shapes; record
    // the data point and warn instead of failing the run.
    if on_best > off_best {
        eprintln!(
            "warning: LS-on best {on_best} worse than LS-off {off_best} for this batch shape"
        );
    }
    if improvement == 0 {
        eprintln!("warning: iterated 2-opt reported no improvement for this batch shape");
    }
    let rec = LocalSearchRec {
        strategy: LocalSearch::TwoOptNn.label().to_string(),
        scope: "iter-best".to_string(),
        jobs,
        off_wall_ms,
        off_best,
        on_wall_ms,
        on_best,
        improvement,
    };
    println!(
        "local search ({} {}): best {} -> {} (improvement {}), wall {:.1} -> {:.1} ms",
        rec.strategy, rec.scope, off_best, on_best, improvement, off_wall_ms, on_wall_ms
    );
    rec
}

/// The observability on/off pair: the standard seeded batch at 1 worker,
/// solved once with the subsystem disabled and once enabled. Off runs
/// first so its cache is equally cold; determinism (pinned by
/// `tests/observability.rs`) guarantees both runs do identical solve
/// work, so the throughput delta isolates the recording overhead.
fn measure_obs_overhead(jobs: usize, n: usize, iters: usize) -> ObsOverheadRec {
    let run = |observe: bool| {
        let engine = Engine::new(EngineConfig::with_workers(1).observe(observe));
        let reqs = batch(jobs, n, iters);
        let t0 = Instant::now();
        let reports = engine.run_batch(reqs);
        let wall_s = t0.elapsed().as_secs_f64();
        let ok = reports.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, jobs, "observability batch must solve");
        ok as f64 / wall_s
    };
    let off_jobs_per_sec = run(false);
    let on_jobs_per_sec = run(true);
    let overhead_pct = if on_jobs_per_sec > 0.0 {
        (off_jobs_per_sec / on_jobs_per_sec - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "observability: {off_jobs_per_sec:.1} jobs/s off -> {on_jobs_per_sec:.1} jobs/s on \
         ({overhead_pct:+.1}% overhead)"
    );
    ObsOverheadRec { jobs, off_jobs_per_sec, on_jobs_per_sec, overhead_pct }
}

/// The dynamics on/off pair: the standard seeded batch at 1 worker,
/// solved once plain and once with dynamics tracking + the event journal
/// enabled. Off runs first so its cache is equally cold; the write-only
/// contract (pinned by `tests/dynamics.rs`) guarantees both runs do
/// identical solve work, so the delta isolates the per-iteration trail
/// scans plus journal recording.
fn measure_dynamics_overhead(jobs: usize, n: usize, iters: usize) -> DynamicsRec {
    let run = |dynamics: bool| {
        let mut config = EngineConfig::with_workers(1);
        if dynamics {
            config = config.dynamics(DynamicsConfig::default()).journal(JournalConfig::default());
        }
        let engine = Engine::new(config);
        let reqs = batch(jobs, n, iters);
        let t0 = Instant::now();
        let reports = engine.run_batch(reqs);
        let wall_s = t0.elapsed().as_secs_f64();
        let ok = reports.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, jobs, "dynamics batch must solve");
        let lines = engine.journal().map(|j| j.len() as u64 + j.evicted()).unwrap_or(0);
        (ok as f64 / wall_s, lines)
    };
    let (off_jobs_per_sec, _) = run(false);
    let (on_jobs_per_sec, journal_lines) = run(true);
    let overhead_pct = if on_jobs_per_sec > 0.0 {
        (off_jobs_per_sec / on_jobs_per_sec - 1.0) * 100.0
    } else {
        0.0
    };
    assert!(journal_lines > 0, "the journal must have recorded the batch");
    println!(
        "dynamics: {off_jobs_per_sec:.1} jobs/s off -> {on_jobs_per_sec:.1} jobs/s on \
         ({overhead_pct:+.1}% overhead, {journal_lines} journal lines)"
    );
    DynamicsRec { jobs, off_jobs_per_sec, on_jobs_per_sec, overhead_pct, journal_lines }
}

/// The serving on/off pair: the standard seeded batch at 1 worker,
/// solved once plain and once with the full read side live — rolling
/// windows, journal, and an idle `serve_observability` endpoint (sampler
/// thread ticking, no client traffic). Off runs first so its cache is
/// equally cold; serving is read-only (pinned by `tests/obs_serve.rs`),
/// so the delta isolates the sampler + endpoint cost.
fn measure_obs_serve(jobs: usize, n: usize, iters: usize) -> ObsServeRec {
    let run = |serve: bool| {
        let mut config = EngineConfig::with_workers(1);
        if serve {
            config = config
                .windows(WindowConfig::default().bucket_ms(100))
                .journal(JournalConfig::default());
        }
        let engine = Engine::new(config);
        let server =
            serve.then(|| engine.serve_observability("127.0.0.1:0").expect("bind endpoint"));
        let reqs = batch(jobs, n, iters);
        let t0 = Instant::now();
        let reports = engine.run_batch(reqs);
        let wall_s = t0.elapsed().as_secs_f64();
        drop(server); // graceful shutdown, outside the timed region's use
        let ok = reports.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, jobs, "serving batch must solve");
        ok as f64 / wall_s
    };
    let off_jobs_per_sec = run(false);
    let on_jobs_per_sec = run(true);
    let overhead_pct = if on_jobs_per_sec > 0.0 {
        (off_jobs_per_sec / on_jobs_per_sec - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "obs serve: {off_jobs_per_sec:.1} jobs/s off -> {on_jobs_per_sec:.1} jobs/s serving idle \
         ({overhead_pct:+.1}% overhead)"
    );
    ObsServeRec { jobs, off_jobs_per_sec, on_jobs_per_sec, overhead_pct }
}

/// The fault-tolerance triple: an explicit GPU batch on a twin-device
/// pool run (1) on the default engine, (2) with retry supervision armed
/// but no faults to trigger it, and (3) under a flaky-device plan with
/// healthy-device failover actually recovering jobs.
fn measure_faults(n: usize, iters: usize) -> FaultsRec {
    let jobs = 8;
    let run = |plan: Option<FaultPlan>, retry: RetryPolicy| {
        let pool =
            vec![DeviceProfile::tesla_c1060("g0"), DeviceProfile::tesla_c1060("g1").sm_count(15)];
        let mut config = EngineConfig::with_workers(1).devices(pool);
        if let Some(plan) = plan {
            config = config.faults(plan);
        }
        let engine = Engine::new(config);
        let inst = Arc::new(aco_tsp::uniform_random("bench-faults", n, 1000.0, 0xF7));
        let params = AcoParams::default().nn(15.min(n - 1)).ants(n.min(32));
        let t0 = Instant::now();
        let reports = engine.run_batch((0..jobs).map(|j| {
            SolveRequest::new(Arc::clone(&inst), params.clone())
                .backend(Backend::Gpu {
                    device: GpuDevice::TeslaC1060,
                    tour: TourStrategy::NNList,
                    pheromone: PheromoneStrategy::AtomicShared,
                })
                .iterations(iters)
                .seed(j as u64)
                .retry(retry)
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let ok = reports.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, jobs, "fault-bench batch must solve");
        let retried =
            reports.iter().filter_map(|r| r.as_ref().ok()).filter(|r| r.attempts > 1).count()
                as u64;
        engine.pool().assert_no_slot_leaks();
        (ok as f64 / wall_s, retried)
    };
    let supervised_policy = RetryPolicy::retries(2).failover(Failover::CpuFallback);
    let (plain_jobs_per_sec, _) = run(None, RetryPolicy::none());
    let (supervised_jobs_per_sec, _) = run(None, supervised_policy);
    let (faulted_jobs_per_sec, retried_jobs) =
        run(Some(FaultPlan::new(0xF7).flaky_device(0, 0.35)), supervised_policy);
    // Overhead is a *regression* measure: positive = supervised slower.
    // A supervised run that measures faster than plain is 1-core noise,
    // not negative overhead — report it as such and record 0.
    let raw_pct = if supervised_jobs_per_sec > 0.0 {
        (plain_jobs_per_sec / supervised_jobs_per_sec - 1.0) * 100.0
    } else {
        0.0
    };
    let overhead_pct = raw_pct.max(0.0);
    if raw_pct < 0.0 {
        println!(
            "faults: {plain_jobs_per_sec:.1} jobs/s plain -> {supervised_jobs_per_sec:.1} jobs/s \
             supervised (supervised measured faster; overhead 0.0%, delta {raw_pct:.1}% is noise), \
             {faulted_jobs_per_sec:.1} jobs/s under faults ({retried_jobs} jobs retried)"
        );
    } else {
        println!(
            "faults: {plain_jobs_per_sec:.1} jobs/s plain -> {supervised_jobs_per_sec:.1} jobs/s \
             supervised ({overhead_pct:.1}% overhead), {faulted_jobs_per_sec:.1} jobs/s under \
             faults ({retried_jobs} jobs retried)"
        );
    }
    FaultsRec {
        jobs,
        plain_jobs_per_sec,
        supervised_jobs_per_sec,
        overhead_pct,
        faulted_jobs_per_sec,
        retried_jobs,
    }
}

/// The batched-LS launch-accounting run: one all-ants `TwoOptNn` GPU
/// job plus one all-ants `OrOpt` GPU job on a fresh 1-worker engine
/// (observability on — its kernel profiler is the counter), then the
/// per-family launch totals from `Engine::metrics()`.
fn measure_batched_ls(n: usize, iters: usize) -> BatchedLsRec {
    let engine = Engine::new(EngineConfig::with_workers(1));
    let inst = Arc::new(aco_tsp::uniform_random("bench-batch-ls", n, 1000.0, 0xB8));
    let ants = n.min(32);
    let params = AcoParams::default().nn(15.min(n - 1)).ants(ants);
    let req = |ls: LocalSearch, seed: u64| {
        SolveRequest::new(Arc::clone(&inst), params.clone())
            .backend(Backend::Gpu {
                device: GpuDevice::TeslaM2050,
                tour: TourStrategy::NNList,
                pheromone: PheromoneStrategy::AtomicShared,
            })
            .iterations(iters)
            .seed(seed)
            .local_search(ls)
            .local_search_scope(LsScope::AllAnts)
    };
    let t0 = Instant::now();
    let reports = engine.run_batch(vec![req(LocalSearch::TwoOptNn, 1), req(LocalSearch::OrOpt, 2)]);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(reports.iter().all(|r| r.is_ok()), "batched-LS jobs must solve");
    let mut rounds = 0u64;
    let mut batched_launches = 0u64;
    let mut or_opt_launches = 0u64;
    for fam in engine.metrics().kernels {
        if fam.family == "two_opt_pos" {
            rounds = fam.invocations;
        }
        if fam.family.starts_with("two_opt") {
            batched_launches += fam.invocations;
        } else if fam.family.starts_with("or_opt") {
            or_opt_launches += fam.invocations;
        }
    }
    let rec = BatchedLsRec {
        ants,
        iterations: iters,
        rounds,
        batched_launches,
        or_opt_launches,
        wall_ms,
    };
    println!(
        "batched ls: {} rounds over {} iterations -> {} two_opt launches (exact {}), \
         {} or_opt, {:.1} ms",
        rec.rounds,
        rec.iterations,
        rec.batched_launches,
        rec.exact_launches(),
        rec.or_opt_launches,
        rec.wall_ms
    );
    rec
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

// --- JSON (de)serialisation of the history ---------------------------------

fn render_run(r: &RunRec) -> String {
    format!(
        "      {{\"workers\": {}, \"jobs\": {}, \"ok\": {}, \"wall_ms\": {:.3}, \
         \"jobs_per_sec\": {:.3}, \"best\": {}, \"artifact_hits\": {}, \"artifact_misses\": {}, \
         \"decision_hits\": {}, \"decision_misses\": {}, \"artifact_evictions\": {}, \
         \"decision_evictions\": {}}}",
        r.workers,
        r.jobs,
        r.ok,
        r.wall_ms,
        r.jobs_per_sec,
        r.best,
        r.artifact_hits,
        r.artifact_misses,
        r.decision_hits,
        r.decision_misses,
        r.artifact_evictions,
        r.decision_evictions,
    )
}

fn render_device(d: &DeviceRec) -> String {
    format!(
        "          {{\"name\": \"{}\", \"model\": \"{}\", \"jobs\": {}, \"busy_ms\": {:.3}, \
         \"util\": {:.3}, \"max_depth\": {}, \"assigned_ms\": {:.3}}}",
        d.name, d.model, d.jobs, d.busy_ms, d.util, d.max_depth, d.assigned_ms
    )
}

fn render_devices(d: &DevicesRec) -> String {
    let per: Vec<String> = d.per_device.iter().map(render_device).collect();
    format!(
        "      {{\n        \"pool\": {},\n        \"jobs\": {},\n        \"wall_ms\": {:.3},\n        \
         \"devices_used\": {},\n        \"per_device\": [\n{}\n        ]\n      }}",
        d.pool,
        d.jobs,
        d.wall_ms,
        d.devices_used,
        per.join(",\n")
    )
}

fn render_local_search(l: &LocalSearchRec) -> String {
    format!(
        "      {{\"strategy\": \"{}\", \"scope\": \"{}\", \"jobs\": {}, \
         \"off_wall_ms\": {:.3}, \"off_best\": {}, \"on_wall_ms\": {:.3}, \"on_best\": {}, \
         \"improvement\": {}}}",
        l.strategy,
        l.scope,
        l.jobs,
        l.off_wall_ms,
        l.off_best,
        l.on_wall_ms,
        l.on_best,
        l.improvement
    )
}

fn render_obs_overhead(o: &ObsOverheadRec) -> String {
    format!(
        "      {{\"jobs\": {}, \"off_jobs_per_sec\": {:.3}, \"on_jobs_per_sec\": {:.3}, \
         \"overhead_pct\": {:.3}}}",
        o.jobs, o.off_jobs_per_sec, o.on_jobs_per_sec, o.overhead_pct
    )
}

fn render_obs_serve(s: &ObsServeRec) -> String {
    format!(
        "      {{\"jobs\": {}, \"off_jobs_per_sec\": {:.3}, \"on_jobs_per_sec\": {:.3}, \
         \"overhead_pct\": {:.3}}}",
        s.jobs, s.off_jobs_per_sec, s.on_jobs_per_sec, s.overhead_pct
    )
}

fn render_dynamics(d: &DynamicsRec) -> String {
    format!(
        "      {{\"jobs\": {}, \"off_jobs_per_sec\": {:.3}, \"on_jobs_per_sec\": {:.3}, \
         \"overhead_pct\": {:.3}, \"journal_lines\": {}}}",
        d.jobs, d.off_jobs_per_sec, d.on_jobs_per_sec, d.overhead_pct, d.journal_lines
    )
}

fn render_faults(f: &FaultsRec) -> String {
    format!(
        "      {{\"jobs\": {}, \"plain_jobs_per_sec\": {:.3}, \"supervised_jobs_per_sec\": {:.3}, \
         \"overhead_pct\": {:.3}, \"faulted_jobs_per_sec\": {:.3}, \"retried_jobs\": {}}}",
        f.jobs,
        f.plain_jobs_per_sec,
        f.supervised_jobs_per_sec,
        f.overhead_pct,
        f.faulted_jobs_per_sec,
        f.retried_jobs
    )
}

fn render_batched_ls(b: &BatchedLsRec) -> String {
    format!(
        "      {{\"ants\": {}, \"iterations\": {}, \"rounds\": {}, \"batched_launches\": {}, \
          \"or_opt_launches\": {}, \"wall_ms\": {:.3}}}",
        b.ants, b.iterations, b.rounds, b.batched_launches, b.or_opt_launches, b.wall_ms
    )
}

fn render_entry(e: &HistEntry) -> String {
    let runs: Vec<String> = e.runs.iter().map(render_run).collect();
    let devices = match &e.devices {
        Some(d) => format!(",\n      \"devices\":\n{}", render_devices(d)),
        None => String::new(),
    };
    let local_search = match &e.local_search {
        Some(l) => format!(",\n      \"local_search\":\n{}", render_local_search(l)),
        None => String::new(),
    };
    let obs_overhead = match &e.obs_overhead {
        Some(o) => format!(",\n      \"obs_overhead\":\n{}", render_obs_overhead(o)),
        None => String::new(),
    };
    let faults = match &e.faults {
        Some(f) => format!(",\n      \"faults\":\n{}", render_faults(f)),
        None => String::new(),
    };
    let batched_ls = match &e.batched_ls {
        Some(b) => format!(",\n      \"batched_ls\":\n{}", render_batched_ls(b)),
        None => String::new(),
    };
    let dynamics = match &e.dynamics {
        Some(d) => format!(",\n      \"dynamics\":\n{}", render_dynamics(d)),
        None => String::new(),
    };
    let obs_serve = match &e.obs_serve {
        Some(s) => format!(",\n      \"obs_serve\":\n{}", render_obs_serve(s)),
        None => String::new(),
    };
    format!(
        "    {{\n      \"label\": \"{}\",\n      \"jobs\": {},\n      \"n\": {},\n      \
         \"iterations\": {},\n      \"host_cpus\": {},\n      \"first_event_ms\": {:.3},\n      \
         \"runs\": [\n{}\n      ]{}{}{}{}{}{}{}\n    }}",
        e.label,
        e.jobs,
        e.n,
        e.iterations,
        e.host_cpus,
        e.first_event_ms,
        runs.join(",\n"),
        devices,
        local_search,
        obs_overhead,
        faults,
        batched_ls,
        dynamics,
        obs_serve
    )
}

fn render_history(entries: &[HistEntry]) -> String {
    let body: Vec<String> = entries.iter().map(render_entry).collect();
    format!("{{\n  \"bench\": \"engine_batch\",\n  \"history\": [\n{}\n  ]\n}}\n", body.join(",\n"))
}

fn uint(v: Option<&Json>) -> u64 {
    v.and_then(Json::num).unwrap_or(0.0) as u64
}

fn parse_run(v: &Json) -> RunRec {
    RunRec {
        workers: uint(v.get("workers")) as usize,
        jobs: uint(v.get("jobs")) as usize,
        ok: uint(v.get("ok")) as usize,
        wall_ms: v.get("wall_ms").and_then(Json::num).unwrap_or(0.0),
        jobs_per_sec: v.get("jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        best: uint(v.get("best")),
        artifact_hits: uint(v.get("artifact_hits")),
        artifact_misses: uint(v.get("artifact_misses")),
        decision_hits: uint(v.get("decision_hits")),
        decision_misses: uint(v.get("decision_misses")),
        artifact_evictions: uint(v.get("artifact_evictions")),
        decision_evictions: uint(v.get("decision_evictions")),
    }
}

fn parse_device(v: &Json) -> DeviceRec {
    DeviceRec {
        name: v.get("name").and_then(Json::str).unwrap_or("?").to_string(),
        model: v.get("model").and_then(Json::str).unwrap_or("?").to_string(),
        jobs: uint(v.get("jobs")),
        busy_ms: v.get("busy_ms").and_then(Json::num).unwrap_or(0.0),
        util: v.get("util").and_then(Json::num).unwrap_or(0.0),
        max_depth: uint(v.get("max_depth")) as usize,
        assigned_ms: v.get("assigned_ms").and_then(Json::num).unwrap_or(0.0),
    }
}

fn parse_devices(v: &Json) -> DevicesRec {
    DevicesRec {
        pool: uint(v.get("pool")) as usize,
        jobs: uint(v.get("jobs")) as usize,
        wall_ms: v.get("wall_ms").and_then(Json::num).unwrap_or(0.0),
        devices_used: uint(v.get("devices_used")) as usize,
        per_device: v
            .get("per_device")
            .and_then(Json::arr)
            .unwrap_or(&[])
            .iter()
            .map(parse_device)
            .collect(),
    }
}

fn parse_local_search(v: &Json) -> LocalSearchRec {
    LocalSearchRec {
        strategy: v.get("strategy").and_then(Json::str).unwrap_or("?").to_string(),
        scope: v.get("scope").and_then(Json::str).unwrap_or("?").to_string(),
        jobs: uint(v.get("jobs")) as usize,
        off_wall_ms: v.get("off_wall_ms").and_then(Json::num).unwrap_or(0.0),
        off_best: uint(v.get("off_best")),
        on_wall_ms: v.get("on_wall_ms").and_then(Json::num).unwrap_or(0.0),
        on_best: uint(v.get("on_best")),
        improvement: uint(v.get("improvement")),
    }
}

fn parse_obs_overhead(v: &Json) -> ObsOverheadRec {
    ObsOverheadRec {
        jobs: uint(v.get("jobs")) as usize,
        off_jobs_per_sec: v.get("off_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        on_jobs_per_sec: v.get("on_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        overhead_pct: v.get("overhead_pct").and_then(Json::num).unwrap_or(0.0),
    }
}

fn parse_faults(v: &Json) -> FaultsRec {
    FaultsRec {
        jobs: uint(v.get("jobs")) as usize,
        plain_jobs_per_sec: v.get("plain_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        supervised_jobs_per_sec: v
            .get("supervised_jobs_per_sec")
            .and_then(Json::num)
            .unwrap_or(0.0),
        overhead_pct: v.get("overhead_pct").and_then(Json::num).unwrap_or(0.0),
        faulted_jobs_per_sec: v.get("faulted_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        retried_jobs: uint(v.get("retried_jobs")),
    }
}

fn parse_obs_serve(v: &Json) -> ObsServeRec {
    ObsServeRec {
        jobs: uint(v.get("jobs")) as usize,
        off_jobs_per_sec: v.get("off_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        on_jobs_per_sec: v.get("on_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        overhead_pct: v.get("overhead_pct").and_then(Json::num).unwrap_or(0.0),
    }
}

fn parse_dynamics(v: &Json) -> DynamicsRec {
    DynamicsRec {
        jobs: uint(v.get("jobs")) as usize,
        off_jobs_per_sec: v.get("off_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        on_jobs_per_sec: v.get("on_jobs_per_sec").and_then(Json::num).unwrap_or(0.0),
        overhead_pct: v.get("overhead_pct").and_then(Json::num).unwrap_or(0.0),
        journal_lines: uint(v.get("journal_lines")),
    }
}

fn parse_batched_ls(v: &Json) -> BatchedLsRec {
    BatchedLsRec {
        ants: uint(v.get("ants")) as usize,
        iterations: uint(v.get("iterations")) as usize,
        rounds: uint(v.get("rounds")),
        batched_launches: uint(v.get("batched_launches")),
        or_opt_launches: uint(v.get("or_opt_launches")),
        wall_ms: v.get("wall_ms").and_then(Json::num).unwrap_or(0.0),
    }
}

fn parse_entry(v: &Json, fallback_label: &str) -> HistEntry {
    HistEntry {
        label: v.get("label").and_then(Json::str).unwrap_or(fallback_label).to_string(),
        jobs: uint(v.get("jobs")) as usize,
        n: uint(v.get("n")) as usize,
        iterations: uint(v.get("iterations")) as usize,
        host_cpus: uint(v.get("host_cpus")) as usize,
        first_event_ms: v.get("first_event_ms").and_then(Json::num).unwrap_or(0.0),
        runs: v.get("runs").and_then(Json::arr).unwrap_or(&[]).iter().map(parse_run).collect(),
        devices: v.get("devices").map(parse_devices),
        local_search: v.get("local_search").map(parse_local_search),
        obs_overhead: v.get("obs_overhead").map(parse_obs_overhead),
        faults: v.get("faults").map(parse_faults),
        batched_ls: v.get("batched_ls").map(parse_batched_ls),
        dynamics: v.get("dynamics").map(parse_dynamics),
        obs_serve: v.get("obs_serve").map(parse_obs_serve),
    }
}

/// Read an artifact in either the history format or the legacy PR-1
/// single-entry format (top-level `runs`). `Ok(vec![])` means the file
/// does not exist; an unparseable or unrecognised file is an error so
/// callers never silently clobber accumulated history.
fn read_history(path: &std::path::Path) -> Result<Vec<HistEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("could not read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("could not parse {}: {e}", path.display()))?;
    if let Some(hist) = doc.get("history").and_then(Json::arr) {
        return Ok(hist.iter().map(|e| parse_entry(e, "unlabeled")).collect());
    }
    if doc.get("runs").is_some() {
        return Ok(vec![parse_entry(&doc, "PR-1")]);
    }
    Err(format!("{} has neither 'history' nor 'runs'", path.display()))
}

/// `--check`: re-run the last committed entry's batch at 1 worker and
/// compare throughput. Exit 1 on regression beyond the tolerance.
fn check(path: &std::path::Path, tolerance: f64) -> ! {
    let history = read_history(path).unwrap_or_else(|e| {
        eprintln!("check: {e}");
        std::process::exit(2);
    });
    let Some(last) = history.last() else {
        eprintln!("check: no usable history in {}", path.display());
        std::process::exit(2);
    };
    let Some(baseline) = last.runs.iter().find(|r| r.workers == 1) else {
        eprintln!("check: entry '{}' has no 1-worker run", last.label);
        std::process::exit(2);
    };
    println!(
        "gate: entry '{}' ({} jobs, n={}, {} iters) baseline {:.3} jobs/s",
        last.label, last.jobs, last.n, last.iterations, baseline.jobs_per_sec
    );
    let fresh = measure(1, last.jobs, last.n, last.iterations);
    let floor = baseline.jobs_per_sec * (1.0 - tolerance);
    if fresh.ok != fresh.jobs {
        eprintln!("gate FAIL: {}/{} jobs succeeded", fresh.ok, fresh.jobs);
        std::process::exit(1);
    }
    if fresh.jobs_per_sec < floor {
        eprintln!(
            "gate FAIL: {:.3} jobs/s < floor {:.3} ({}% below baseline {:.3})",
            fresh.jobs_per_sec,
            floor,
            (tolerance * 100.0) as u32,
            baseline.jobs_per_sec
        );
        std::process::exit(1);
    }
    println!("gate OK: {:.3} jobs/s >= floor {:.3}", fresh.jobs_per_sec, floor);
    // Advisory observability gate: re-measure the on/off pair and warn —
    // never fail — beyond 5% overhead (1-core single-run wall clocks are
    // too noisy to hard-gate at that resolution).
    let obs = measure_obs_overhead(last.jobs, last.n, last.iterations);
    if obs.overhead_pct > 5.0 {
        eprintln!(
            "gate ADVISORY: observability overhead {:.1}% exceeds the 5% target \
             (off {:.3} -> on {:.3} jobs/s)",
            obs.overhead_pct, obs.off_jobs_per_sec, obs.on_jobs_per_sec
        );
    } else {
        println!("obs overhead advisory OK: {:+.1}% (target <= 5%)", obs.overhead_pct);
    }
    // Advisory search-dynamics gate: the dynamics + journal pair must
    // stay within 5% of plain throughput. Same warn-never-fail policy as
    // the observability pair — the trail scans are real work, but 1-core
    // single-run wall clocks cannot hard-gate at 5% resolution.
    let dynamics = measure_dynamics_overhead(last.jobs, last.n, last.iterations);
    if dynamics.overhead_pct > 5.0 {
        eprintln!(
            "gate ADVISORY: dynamics+journal overhead {:.1}% exceeds the 5% target \
             (off {:.3} -> on {:.3} jobs/s)",
            dynamics.overhead_pct, dynamics.off_jobs_per_sec, dynamics.on_jobs_per_sec
        );
    } else {
        println!("dynamics overhead advisory OK: {:+.1}% (target <= 5%)", dynamics.overhead_pct);
    }
    // Advisory serving gate: the full read side (windows + journal +
    // idle HTTP endpoint + sampler) must stay within 5% of plain
    // throughput. Warn — never fail — for the usual 1-core wall-clock
    // reason.
    let serve = measure_obs_serve(last.jobs, last.n, last.iterations);
    if serve.overhead_pct > 5.0 {
        eprintln!(
            "gate ADVISORY: idle-serving overhead {:.1}% exceeds the 5% target \
             (off {:.3} -> serving {:.3} jobs/s)",
            serve.overhead_pct, serve.off_jobs_per_sec, serve.on_jobs_per_sec
        );
    } else {
        println!("obs serve overhead advisory OK: {:+.1}% (target <= 5%)", serve.overhead_pct);
    }
    // Advisory retry-supervision gate, same rationale: warn — never
    // fail — and only on *positive* regressions (`overhead_pct` is
    // clamped at 0 when the supervised run measures faster, so a noisy
    // speedup can never read as overhead).
    let faults = measure_faults(last.n, last.iterations);
    if faults.overhead_pct > 5.0 {
        eprintln!(
            "gate ADVISORY: idle retry-supervision overhead {:.1}% exceeds the 5% target \
             (plain {:.3} -> supervised {:.3} jobs/s)",
            faults.overhead_pct, faults.plain_jobs_per_sec, faults.supervised_jobs_per_sec
        );
    } else {
        println!("faults overhead advisory OK: {:.1}% (target <= 5%)", faults.overhead_pct);
    }
    // Batched-LS launch accounting: kernel launch counts are
    // deterministic (no wall-clock noise), so the O(rounds) bound and
    // the exact one-window count are *hard* gates — an all-ants pass
    // that regresses to per-ant windows or exceeds 4 launches/round
    // fails CI.
    let batched = measure_batched_ls(last.n, last.iterations);
    let mut launch_fail = false;
    if batched.batched_launches > 4 * batched.rounds {
        eprintln!(
            "gate FAIL: {} two_opt launches exceed the O(rounds) bound 4 x {} rounds",
            batched.batched_launches, batched.rounds
        );
        launch_fail = true;
    }
    if batched.batched_launches != batched.exact_launches() {
        eprintln!(
            "gate FAIL: {} two_opt launches != 4 x {} rounds - {} iterations (one window \
             per pass, ending in one non-moving round)",
            batched.batched_launches, batched.rounds, batched.iterations
        );
        launch_fail = true;
    }
    if batched.or_opt_launches == 0 {
        eprintln!("gate FAIL: OrOpt job launched no device or_opt kernels (host fallback?)");
        launch_fail = true;
    }
    if launch_fail {
        std::process::exit(1);
    }
    println!(
        "batched LS gate OK: {} launches = 4 x {} rounds - {} iterations, {} or_opt",
        batched.batched_launches, batched.rounds, batched.iterations, batched.or_opt_launches
    );
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check {
        check(path, args.tolerance);
    }

    let runs: Vec<RunRec> =
        args.workers.iter().map(|&w| measure(w, args.jobs, args.n, args.iters)).collect();
    let first_event_ms = measure_first_event_ms(args.n, args.iters);
    println!("submit -> first progress event: {first_event_ms:.3} ms (min of 5, warm cache)");
    let devices = measure_devices(args.n, args.iters);
    let local_search = measure_local_search(args.n, args.iters);
    let obs_overhead = measure_obs_overhead(args.jobs, args.n, args.iters);
    let dynamics = measure_dynamics_overhead(args.jobs, args.n, args.iters);
    let obs_serve = measure_obs_serve(args.jobs, args.n, args.iters);
    let faults = measure_faults(args.n, args.iters);
    let batched_ls = measure_batched_ls(args.n, args.iters);
    let entry = HistEntry {
        label: args.label.clone(),
        jobs: args.jobs,
        n: args.n,
        iterations: args.iters,
        host_cpus: host_cpus(),
        first_event_ms,
        runs,
        devices: Some(devices),
        local_search: Some(local_search),
        obs_overhead: Some(obs_overhead),
        faults: Some(faults),
        batched_ls: Some(batched_ls),
        dynamics: Some(dynamics),
        obs_serve: Some(obs_serve),
    };

    let mut history = if args.append {
        read_history(&args.out).unwrap_or_else(|e| {
            eprintln!("refusing to overwrite unreadable history: {e}");
            std::process::exit(1);
        })
    } else {
        Vec::new()
    };
    // Re-running under an existing label replaces that entry (keeps the
    // artifact one-entry-per-PR).
    history.retain(|e| e.label != entry.label);
    history.push(entry);

    let json = render_history(&history);
    match std::fs::write(&args.out, &json) {
        Ok(()) => println!("-> {}", args.out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", args.out.display());
            std::process::exit(1);
        }
    }
}

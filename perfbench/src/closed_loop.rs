//! Set-up and the closed-loop engine phase, with the output checks.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aco_engine::{
    CacheStats, DeviceSnapshot, Engine, EngineError, JobOutcome, JobTimeline, ObsServer,
    SolveReport, SolveRequest,
};

use crate::host;
use crate::quantile;
use crate::workload::{Mix, Scale, Workload, CLIENTS};

/// An engine that is set up and warm, ready for a measured phase.
pub struct Setup {
    /// The generated inputs.
    pub mix: Mix,
    /// The engine under test.
    pub engine: Engine,
    /// The HTTP observability endpoint (`auto-service` only).
    pub server: Option<ObsServer>,
}

impl Setup {
    /// Generate the instances, build the engine, bind the endpoint and
    /// run one warm-up job per fixed instance. Returns the set-up and the
    /// wall seconds it took.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> (Setup, f64) {
        let t0 = Instant::now();
        let mix = Mix::generate(workload, scale, seed);
        let engine = Engine::new(workload.engine_config());
        let server = workload.serves().then(|| {
            engine.serve_observability("127.0.0.1:0").expect("bind the endpoint on localhost")
        });
        for (instance, backend) in &mix.warmup {
            let req = SolveRequest::new(mix.instance(*instance), mix.params.clone())
                .backend(backend.clone())
                .iterations(mix.iterations)
                .seed(0);
            engine.submit(req).wait().expect("warm-up job succeeds");
        }
        (Setup { mix, engine, server }, t0.elapsed().as_secs_f64())
    }
}

/// One closed-loop job.
pub struct JobRecord {
    /// Index of the job in the mix.
    pub k: usize,
    /// The round of the phase the job ran in ([`Phase::rounds`]).
    pub round: usize,
    /// Submit → `JobHandle::wait` return, wall ms.
    pub latency_ms: f64,
    /// What `wait` returned.
    pub result: Result<SolveReport, EngineError>,
    /// The engine's span timeline (traced phases only).
    pub timeline: Option<JobTimeline>,
}

impl JobRecord {
    /// The report of a job that completed every iteration.
    pub fn completed(&self) -> Option<&SolveReport> {
        self.result.as_ref().ok().filter(|r| r.outcome == JobOutcome::Completed)
    }
}

/// One round of a phase: [`Mix::round_jobs`] jobs between two reference
/// readings.
pub struct Round {
    /// First submit → last return, seconds.
    pub wall_s: f64,
    /// The reference reading right before the round, ms.
    pub ref_before_ms: f64,
    /// The factor that scales the round's times to a quiet host
    /// ([`host::scale`]).
    pub scale: f64,
}

/// What one measured phase produced.
pub struct Phase {
    /// Every job, ordered by mix index.
    pub records: Vec<JobRecord>,
    /// The rounds, in order; jobs point into it.
    pub rounds: Vec<Round>,
    /// Client-side wall time of each endpoint GET, ms (`auto-service`).
    pub scrapes_ms: Vec<f64>,
    /// Most threads the process held at any job boundary (traced only).
    pub threads_peak: u64,
    /// `VmHWM` (kB) when job [`RSS_CHECKPOINT_JOB`] returned, if it ran.
    pub checkpoint_hwm_kb: Option<u64>,
    /// Cache counters before and after the phase.
    pub cache: (CacheStats, CacheStats),
    /// Device telemetry before and after the phase.
    pub devices: (Vec<DeviceSnapshot>, Vec<DeviceSnapshot>),
}

impl Phase {
    /// Completed jobs.
    pub fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.completed().is_some()).count()
    }

    /// Wall seconds of the rounds, reference readings excluded.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Completed jobs per second of phase wall time.
    pub fn jobs_per_s(&self) -> f64 {
        self.ok() as f64 / self.wall_s()
    }

    /// Completed jobs per second scaled to a quiet host: the median over
    /// rounds, so a slow spell within a few rounds does not move it.
    pub fn jobs_per_s_quiet(&self) -> f64 {
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(i, round)| {
                let ok = self.records.iter().filter(|r| r.round == i && r.completed().is_some());
                ok.count() as f64 / (round.wall_s * round.scale)
            })
            .collect();
        quantile(&mut per_round, 0.5)
    }

    /// The `q` quantile of completed jobs' latency scaled to a quiet host,
    /// ms: taken per round, then the median over rounds.
    pub fn latency_quiet_ms(&self, q: f64) -> f64 {
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(i, round)| {
                let mut latency: Vec<f64> = self
                    .records
                    .iter()
                    .filter(|r| r.round == i && r.completed().is_some())
                    .map(|r| r.latency_ms * round.scale)
                    .collect();
                quantile(&mut latency, q)
            })
            .collect();
        quantile(&mut per_round, 0.5)
    }

    /// Median reference reading over the phase, ms.
    pub fn reference_ms(&self) -> f64 {
        let mut readings: Vec<f64> = self.rounds.iter().map(|r| r.ref_before_ms).collect();
        quantile(&mut readings, 0.5)
    }
}

/// The job whose return reads the peak RSS. `auto-service` memory grows
/// with every fresh instance, so the end-of-run peak would depend on
/// how many jobs the run completed; every full-size run completes this
/// many.
pub const RSS_CHECKPOINT_JOB: usize = 127;

#[derive(Default)]
struct ClientLog {
    records: Vec<JobRecord>,
    scrapes_ms: Vec<f64>,
    threads_peak: u64,
    checkpoint_hwm_kb: Option<u64>,
}

/// Drive the closed loop for `seconds`: [`CLIENTS`] threads each submit
/// the next job of the mix only after their previous one returned. The
/// loop runs in rounds of [`Mix::round_jobs`] jobs; both clients stop at
/// the end of a round, and the host's speed is read between rounds. Once
/// the time is up the clients finish the current pass over the mix
/// ([`Mix::cycle`]) and stop, so every run covers whole cycles and every
/// run of a workload splits into the same kinds of round. With `traced`,
/// clients also fetch each job's timeline and sample the process thread
/// count.
pub fn run_phase(setup: &Setup, seconds: f64, traced: bool) -> Phase {
    let (engine, mix) = (&setup.engine, &setup.mix);
    let next = Mutex::new(0usize);
    let cache_before = engine.cache_stats();
    let devices_before = engine.device_stats();
    let scrape_addr = setup.server.as_ref().map(ObsServer::local_addr);
    let mut rounds = Vec::new();
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let mut ref_ms = host::reference_ms();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let round = rounds.len();
        let round_end = (round + 1) * mix.round_jobs();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (client, log) in logs.iter_mut().enumerate() {
                // The second client reads the endpoint after each of its
                // jobs, so metric reads interleave with the writes.
                let scrape = scrape_addr.filter(|_| client == 1);
                let next = &next;
                scope.spawn(move || {
                    client_loop(engine, mix, next, round_end, round, traced, scrape, log)
                });
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        let ref_after = host::reference_ms();
        rounds.push(Round { wall_s, ref_before_ms: ref_ms, scale: host::scale(ref_ms, ref_after) });
        ref_ms = ref_after;
        if round_end.is_multiple_of(mix.cycle()) && Instant::now() >= deadline {
            break;
        }
    }
    let mut records = Vec::new();
    let mut scrapes_ms = Vec::new();
    let mut threads_peak = 0;
    let mut checkpoint_hwm_kb = None;
    for log in logs {
        records.extend(log.records);
        scrapes_ms.extend(log.scrapes_ms);
        threads_peak = threads_peak.max(log.threads_peak);
        checkpoint_hwm_kb = checkpoint_hwm_kb.or(log.checkpoint_hwm_kb);
    }
    records.sort_by_key(|r| r.k);
    Phase {
        records,
        rounds,
        scrapes_ms,
        threads_peak,
        checkpoint_hwm_kb,
        cache: (cache_before, engine.cache_stats()),
        devices: (devices_before, engine.device_stats()),
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    engine: &Engine,
    mix: &Mix,
    next: &Mutex<usize>,
    round_end: usize,
    round: usize,
    traced: bool,
    scrape: Option<SocketAddr>,
    log: &mut ClientLog,
) {
    loop {
        let k = {
            let mut next = next.lock().expect("job counter lock");
            if *next == round_end {
                break;
            }
            *next += 1;
            *next - 1
        };
        let req = mix.request(k);
        let t0 = Instant::now();
        let handle = engine.submit(req);
        let result = handle.wait();
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let timeline = if traced { handle.timeline() } else { None };
        if traced {
            log.threads_peak = log.threads_peak.max(proc_status("Threads:").unwrap_or(0));
        }
        if k == RSS_CHECKPOINT_JOB {
            log.checkpoint_hwm_kb = proc_status("VmHWM:");
        }
        log.records.push(JobRecord { k, round, latency_ms, result, timeline });
        if let Some(addr) = scrape {
            for path in ["/metrics", "/healthz"] {
                let t0 = Instant::now();
                http_get(addr, path).expect("the observability endpoint answers");
                log.scrapes_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

/// One blocking `GET` (the endpoint serves one request per connection);
/// returns the response size in bytes.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    if !response.starts_with(b"HTTP/1.1 200") {
        let head = String::from_utf8_lossy(&response[..response.len().min(64)]).into_owned();
        return Err(std::io::Error::other(format!("GET {path}: {head}")));
    }
    Ok(response.len())
}

/// A numeric field of `/proc/self/status` (`VmHWM:` in kB, `Threads:`).
pub fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
}

/// Outcome of the output checks over one phase.
#[derive(Default)]
pub struct Verdict {
    /// Jobs that completed every iteration.
    pub ok: usize,
    /// Jobs that returned an error or stopped early.
    pub failed: usize,
    /// Completed jobs whose report is wrong, one line each.
    pub violations: Vec<String>,
}

/// Check every report of a phase: a completed job must carry a valid
/// permutation of its instance, a `best_len` equal to that tour's length
/// recomputed from the distance matrix, and the requested iteration
/// count. Anything but `Ok` with `JobOutcome::Completed` is a failure.
pub fn check(mix: &Mix, records: &[JobRecord]) -> Verdict {
    let mut verdict = Verdict::default();
    for r in records {
        let Some(report) = r.completed() else {
            match &r.result {
                Ok(rep) => eprintln!("perfbench: job {} stopped early: {:?}", r.k, rep.outcome),
                Err(e) => eprintln!("perfbench: job {} failed: {e}", r.k),
            }
            verdict.failed += 1;
            continue;
        };
        verdict.ok += 1;
        let job = mix.job(r.k);
        let inst = mix.instance(job.instance);
        let tour = &report.best_tour;
        if tour.n() != inst.n() || !tour.is_valid() {
            verdict.violations.push(format!("job {}: best_tour is not a permutation", r.k));
        } else if tour.length(inst.matrix()) != report.best_len {
            verdict.violations.push(format!(
                "job {}: best_len {} but the tour measures {}",
                r.k,
                report.best_len,
                tour.length(inst.matrix())
            ));
        }
        if report.iterations != job.iterations {
            verdict.violations.push(format!(
                "job {}: {} iterations ran, {} requested",
                r.k, report.iterations, job.iterations
            ));
        }
    }
    verdict
}

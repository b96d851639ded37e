//! The three workloads: engine configuration, instance tables, warm-up
//! jobs and job mixes, all derived from the workload seed.
//!
//! Job `k` of a run is a pure function of `(workload, scale, seed, k)`.
//! Each mix cycles through a template whose order does not depend on the
//! seed, so a run that completes `K` jobs always ran the same first `K`
//! template entries; only instance coordinates and job seeds change from
//! seed to seed.

use std::sync::Arc;
use std::time::Instant;

use aco_core::{AcoParams, AcsParams, MmasParams, PheromoneStrategy, TourPolicy, TourStrategy};
use aco_engine::{
    Backend, DeviceProfile, DynamicsConfig, EngineConfig, GpuDevice, JournalConfig, LocalSearch,
    SolveRequest, WindowConfig,
};
use aco_tsp::TspInstance;

/// Engine workers. With one worker and two clients one job is always
/// queued, so the scheduler's queue path is exercised; two workers on a
/// two-core host would measure the host's scheduler instead.
pub const WORKERS: usize = 1;
/// Closed-loop clients: each submits its next job only after its
/// previous one returned.
pub const CLIENTS: usize = 2;
/// Jobs served by each fresh `auto-service` instance: the first misses
/// the artifact and decision caches, the other three hit both.
const JOBS_PER_FRESH_INSTANCE: usize = 4;
/// Interleaving stride of the `gpu-kernels` template (coprime with its
/// length), so any window of a few dozen jobs samples every kind of row.
/// With 25 each quarter of the cycle — one round — holds two
/// `ScatterTiled` and two `Scatter` jobs, the costliest rows, and one GPU
/// ACS job, so the four kinds of round take about as long as each other.
const GPU_STRIDE: usize = 25;
/// `gpu-kernels` instances per size. Short jobs leave the tour quality
/// instance-dependent; spreading the template over several instances
/// keeps `quality_ratio` steady from seed to seed.
const GPU_INSTANCES_PER_SIZE: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CPU colonies on a few fixed instances; no SIMT work at all.
    CpuColonies,
    /// Explicit GPU jobs over every Table II / III row on a 4-device pool.
    GpuKernels,
    /// `Auto` jobs over a stream of fresh instances, observability on.
    AutoService,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CpuColonies, Workload::GpuKernels, Workload::AutoService];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuColonies => "cpu-colonies",
            Workload::GpuKernels => "gpu-kernels",
            Workload::AutoService => "auto-service",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated device pool the engine places GPU jobs on.
    pub fn devices(self) -> Vec<DeviceProfile> {
        match self {
            Workload::GpuKernels => vec![
                DeviceProfile::tesla_c1060("g0"),
                DeviceProfile::tesla_c1060("g1"),
                DeviceProfile::tesla_m2050("f0"),
                DeviceProfile::tesla_m2050("f1"),
            ],
            _ => aco_engine::default_devices(),
        }
    }

    /// The engine this workload runs against. Fault injection stays
    /// disarmed everywhere.
    pub fn engine_config(self) -> EngineConfig {
        let config = EngineConfig::with_workers(WORKERS).devices(self.devices());
        match self {
            Workload::AutoService => config
                .dynamics(DynamicsConfig::default())
                .journal(JournalConfig::default())
                // A 4 s ring of frames is full long before the RSS
                // checkpoint however fast the jobs run, so `peak_rss_mb`
                // does not grow with the time the first jobs took.
                .windows(WindowConfig::default().bucket_ms(100).buckets(40)),
            _ => config,
        }
    }

    /// Whether set-up binds the HTTP observability endpoint.
    pub fn serves(self) -> bool {
        self == Workload::AutoService
    }
}

/// Problem sizes: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's instance sizes.
    Full,
    /// A few dozen cities and two iterations per job.
    Tiny,
}

/// One job of a mix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index of the instance ([`Mix::instance`]).
    pub instance: usize,
    /// Backend to request.
    pub backend: Backend,
    /// Iterations to request.
    pub iterations: usize,
    /// Per-iteration local search (iteration-best scope).
    pub local_search: LocalSearch,
    /// Job seed.
    pub seed: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    instance: usize,
    backend: Backend,
    iterations: usize,
    local_search: LocalSearch,
}

/// A workload's generated inputs.
pub struct Mix {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// ACO parameters of every job (the job seed overrides `seed`).
    pub params: AcoParams,
    /// Wall time `aco_tsp::uniform_random` took per fixed instance, ms.
    pub instance_ms: Vec<f64>,
    /// Warm-up jobs `(instance, backend)`, run once during set-up.
    pub warmup: Vec<(usize, Backend)>,
    /// Iterations of every job, warm-up jobs included.
    pub iterations: usize,
    /// The instances generated during set-up.
    fixed: Vec<Arc<TspInstance>>,
    template: Vec<Entry>,
    /// City counts of the fresh-instance stream (`auto-service` only):
    /// instance `fixed.len() + j` has `fresh_sizes[j % 2]` cities.
    fresh_sizes: Option<[usize; 2]>,
    seed: u64,
    description: String,
}

/// SplitMix64 finaliser: derives independent seeds from one workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Instance `i` of `workload`: `n` uniform random cities seeded from the
/// workload seed.
fn make_instance(workload: Workload, seed: u64, i: usize, n: usize) -> TspInstance {
    let name = format!("{}-{i}", workload.name());
    aco_tsp::uniform_random(&name, n, 1000.0, derive(seed, i as u64))
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h` (stamps and mix hashes).
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

impl Mix {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Mix {
        let tiny = scale == Scale::Tiny;
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        // Ants and iterations keep jobs near 100 ms on one worker, so a
        // run completes the >= 100 jobs `latency_p90_ms` needs.
        let (ants, iterations) = match workload {
            Workload::CpuColonies => (16, pick(30, 2)),
            Workload::GpuKernels => (8, pick(3, 2)),
            Workload::AutoService => (16, 2),
        };
        let params = AcoParams::default().nn(15).ants(ants);
        let (sizes, template, warmup, fresh_sizes): (Vec<usize>, _, Vec<_>, _) = match workload {
            Workload::CpuColonies => {
                let sizes = vec![pick(100, 24), pick(280, 32), pick(100, 24), pick(280, 32)];
                let template = cpu_template(sizes.len(), iterations);
                let warmup = (0..sizes.len()).map(|i| (i, template[0].backend.clone())).collect();
                (sizes, template, warmup, None)
            }
            Workload::GpuKernels => {
                let sizes: Vec<usize> = (0..2 * GPU_INSTANCES_PER_SIZE)
                    .map(|i| if i < GPU_INSTANCES_PER_SIZE { pick(48, 16) } else { pick(100, 24) })
                    .collect();
                let warmup = (0..sizes.len())
                    .map(|i| {
                        let backend = Backend::Gpu {
                            device: GpuDevice::ALL[i % 2],
                            tour: TourStrategy::NNList,
                            pheromone: PheromoneStrategy::AtomicShared,
                        };
                        (i, backend)
                    })
                    .collect();
                (sizes, gpu_template(iterations), warmup, None)
            }
            Workload::AutoService => {
                let (small, large) = (pick(48, 16), pick(100, 24));
                let template = vec![Entry {
                    instance: 0,
                    backend: Backend::Auto,
                    iterations,
                    local_search: LocalSearch::None,
                }];
                // Two warm-up instances, then the fresh stream.
                let warmup = vec![(0, Backend::Auto), (1, Backend::Auto)];
                (vec![small, large], template, warmup, Some([small, large]))
            }
        };
        let mut fixed = Vec::with_capacity(sizes.len());
        let mut instance_ms = Vec::with_capacity(sizes.len());
        for (i, &n) in sizes.iter().enumerate() {
            let t0 = Instant::now();
            fixed.push(Arc::new(make_instance(workload, seed, i, n)));
            instance_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        // The mix hash covers everything about the jobs except the
        // seed-derived values.
        let description =
            format!("{workload:?}|{scale:?}|{params:?}|{sizes:?}|{fresh_sizes:?}|{template:?}");
        Mix {
            workload,
            params,
            instance_ms,
            warmup,
            iterations,
            fixed,
            template,
            fresh_sizes,
            seed,
            description,
        }
    }

    /// Instance `i`. Fresh-stream instances are generated on each call
    /// (the caches key instances by content, so every copy is the same
    /// instance to the engine); the stream is unbounded, so no run wraps
    /// around it however fast its jobs complete.
    pub fn instance(&self, i: usize) -> Arc<TspInstance> {
        match (self.fixed.get(i), self.fresh_sizes) {
            (Some(inst), _) => Arc::clone(inst),
            (None, Some(sizes)) => {
                let n = sizes[(i - self.fixed.len()) % 2];
                Arc::new(make_instance(self.workload, self.seed, i, n))
            }
            (None, None) => panic!("{:?} has no instance {i}", self.workload),
        }
    }

    /// Jobs in one pass over the mix: the template, or for the fresh
    /// stream one instance of each size. Runs end on a whole cycle, so
    /// every run of a workload weighs the job kinds alike.
    pub fn cycle(&self) -> usize {
        if self.fresh_sizes.is_some() {
            2 * JOBS_PER_FRESH_INSTANCE
        } else {
            self.template.len()
        }
    }

    /// Jobs per round of a measured phase: a fixed stretch of the mix of
    /// about 1.5 s at full size, so the host's speed is read that often
    /// and every run of a workload splits into the same kinds of round. A
    /// whole cycle is a whole number of rounds.
    pub fn round_jobs(&self) -> usize {
        match self.workload {
            // 20 jobs.
            Workload::CpuColonies => self.cycle(),
            // 17 jobs; the template interleaves its rows, so the four
            // quarters of a cycle carry much the same work.
            Workload::GpuKernels => self.cycle() / 4,
            // 16 jobs: four fresh instances, each served four times.
            Workload::AutoService => 2 * self.cycle(),
        }
    }

    /// Job `k` of the run.
    pub fn job(&self, k: usize) -> JobSpec {
        let entry = &self.template[k % self.template.len()];
        let instance = match self.fresh_sizes {
            Some(_) => self.fixed.len() + k / JOBS_PER_FRESH_INSTANCE,
            None => entry.instance,
        };
        JobSpec {
            instance,
            backend: entry.backend.clone(),
            iterations: entry.iterations,
            local_search: entry.local_search,
            seed: derive(self.seed, (1 << 32) | k as u64),
        }
    }

    /// Job `k` as an engine request.
    pub fn request(&self, k: usize) -> SolveRequest {
        let job = self.job(k);
        SolveRequest::new(self.instance(job.instance), self.params.clone())
            .backend(job.backend)
            .iterations(job.iterations)
            .seed(job.seed)
            .local_search(job.local_search)
    }

    /// Hash of the mix's shape — backends, kernel rows, sizes,
    /// iterations, local-search pattern, parameters — independent of the
    /// seed.
    pub fn hash(&self) -> u64 {
        fnv1a(self.description.as_bytes(), FNV_OFFSET)
    }
}

/// The `cpu-colonies` template: 20 entries in which every backend meets
/// every instance once; the last five (one job in four, every backend
/// once) run iteration-best 2-opt.
fn cpu_template(instances: usize, iterations: usize) -> Vec<Entry> {
    let backends = [
        Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
        Backend::CpuSequential { policy: TourPolicy::FullProbabilistic },
        Backend::CpuParallel { policy: TourPolicy::NearestNeighborList, threads: 2 },
        Backend::CpuAcs(AcsParams::default()),
        Backend::CpuMmas(MmasParams::default()),
    ];
    (0..20)
        .map(|t| Entry {
            instance: t % instances,
            backend: backends[t % backends.len()].clone(),
            iterations,
            local_search: if t >= 15 { LocalSearch::TwoOptNn } else { LocalSearch::None },
        })
        .collect()
}

/// The `gpu-kernels` template: every Table II tour row against the three
/// atomic-family pheromone rows at both sizes, the two scatter rows at
/// the small size only (they cost several times more per job), and GPU
/// ACS on both models at both sizes. Device models alternate; one entry
/// in five runs device 2-opt on the iteration best.
fn gpu_template(iterations: usize) -> Vec<Entry> {
    let mut combos: Vec<(usize, Backend)> = Vec::new();
    let gpu =
        |k: usize, tour, pheromone| Backend::Gpu { device: GpuDevice::ALL[k % 2], tour, pheromone };
    let atomic_rows =
        [PheromoneStrategy::AtomicShared, PheromoneStrategy::Atomic, PheromoneStrategy::Reduction];
    for size in 0..2 {
        for tour in TourStrategy::ALL {
            for pheromone in atomic_rows {
                combos.push((size, gpu(combos.len(), tour, pheromone)));
            }
        }
    }
    for tour in TourStrategy::ALL {
        for pheromone in [PheromoneStrategy::ScatterTiled, PheromoneStrategy::Scatter] {
            combos.push((0, gpu(combos.len(), tour, pheromone)));
        }
    }
    for size in 0..2 {
        for device in GpuDevice::ALL {
            combos.push((size, Backend::GpuAcs { device, acs: AcsParams::default() }));
        }
    }
    let len = combos.len();
    (0..len)
        .map(|t| {
            let (size, backend) = combos[(t * GPU_STRIDE) % len].clone();
            Entry {
                instance: size * GPU_INSTANCES_PER_SIZE + t % GPU_INSTANCES_PER_SIZE,
                backend,
                iterations,
                local_search: if t % 5 == 4 { LocalSearch::TwoOptNn } else { LocalSearch::None },
            }
        })
        .collect()
}

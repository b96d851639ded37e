//! Fixtures shared by the engine integration suites: the mixed batch
//! that runs every backend family, and the fingerprint of what a batch
//! must report identically under every setting meant to be write-only
//! (observability, dynamics, journal, serving) and at any worker count.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use std::sync::Arc;

use aco_gpu::core::cpu::{AcsParams, MmasParams, TourPolicy};
use aco_gpu::core::gpu::{PheromoneStrategy, TourStrategy};
use aco_gpu::core::AcoParams;
use aco_gpu::engine::{
    Backend, GpuDevice, IterationEvent, JobHandle, JobOutcome, LocalSearch, SolveReport,
    SolveRequest,
};
use aco_gpu::tsp;

/// One request per backend family — sequential, parallel, ACS and MMAS
/// on the CPU, the Ant System and ACS on the simulated GPU — with
/// `jobs[k]` giving the k-th its iteration count and local search,
/// followed by one 3-iteration `Auto` job. Seeds are 1 to 7.
pub fn batch_of(
    inst: &Arc<tsp::TspInstance>,
    jobs: [(usize, LocalSearch); 6],
) -> Vec<SolveRequest> {
    let params = AcoParams::default().nn(8).ants(10);
    let backends = [
        Backend::CpuSequential { policy: TourPolicy::NearestNeighborList },
        Backend::CpuParallel { policy: TourPolicy::NearestNeighborList, threads: 3 },
        Backend::CpuAcs(AcsParams::default()),
        Backend::CpuMmas(MmasParams::default()),
        Backend::Gpu {
            device: GpuDevice::TeslaC1060,
            tour: TourStrategy::NNList,
            pheromone: PheromoneStrategy::AtomicShared,
        },
        Backend::GpuAcs { device: GpuDevice::TeslaM2050, acs: AcsParams::default() },
    ];
    let mut batch: Vec<SolveRequest> = backends
        .into_iter()
        .zip(jobs)
        .zip(1..)
        .map(|((backend, (iterations, ls)), seed)| {
            SolveRequest::new(Arc::clone(inst), params.clone())
                .backend(backend)
                .iterations(iterations)
                .seed(seed)
                .local_search(ls)
        })
        .collect();
    batch.push(
        SolveRequest::new(Arc::clone(inst), params).backend(Backend::Auto).iterations(3).seed(7),
    );
    batch
}

/// The observability suites' batch: every backend family, with and
/// without local search or a post-pass, so every span-recording path
/// runs.
pub fn mixed_batch(inst: &Arc<tsp::TspInstance>) -> Vec<SolveRequest> {
    batch_of(
        inst,
        [
            (5, LocalSearch::None),
            (5, LocalSearch::PostPass),
            (4, LocalSearch::None),
            (4, LocalSearch::TwoOptNn),
            (3, LocalSearch::TwoOptNn),
            (3, LocalSearch::None),
        ],
    )
}

/// Wait for every job in order, require that it completed, and pair its
/// report with its full progress stream.
pub fn completed(handles: Vec<JobHandle>) -> Vec<(SolveReport, Vec<IterationEvent>)> {
    handles
        .into_iter()
        .map(|h| {
            let stream = h.progress();
            let report = h.wait().expect("job solves");
            assert_eq!(report.outcome, JobOutcome::Completed);
            (report, stream.collect())
        })
        .collect()
}

/// Everything observable about a batch that must not depend on a
/// write-only setting or the worker count: best length, best tour,
/// device, and the progress events.
pub type BatchFingerprint = Vec<(u64, Vec<u32>, Option<u32>, Vec<IterationEvent>)>;

/// [`completed`], reduced to the [`BatchFingerprint`].
pub fn fingerprint(handles: Vec<JobHandle>) -> BatchFingerprint {
    completed(handles)
        .into_iter()
        .map(|(r, events)| {
            (r.best_len, r.best_tour.order().to_vec(), r.device.map(|d| d.0), events)
        })
        .collect()
}

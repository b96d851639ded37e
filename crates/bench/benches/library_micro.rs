//! Library microbenchmarks: the real wall time of the building blocks —
//! TSPLIB parsing, NN-list construction, 2-opt, CPU AS (both roulettes)
//! and MMAS iterations, and raw simulator throughput.

use aco_core::cpu::{AntSystem, MaxMinAntSystem, MmasParams, OpCounter, TourPolicy, TourScratch};
use aco_core::params::AcoParams;
use aco_simt::prelude::*;
use aco_tsp::{tsplib, NearestNeighborLists, Tour};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

struct Saxpy {
    x: DevicePtr<f32>,
    n: u32,
}
impl Kernel for Saxpy {
    fn name(&self) -> &'static str {
        "saxpy"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let i = ctx.global_thread_idx();
        let limit = ctx.splat_u32(self.n);
        let ok = ctx.ult(&i, &limit);
        ctx.if_then(gm, &ok, |ctx, gm| {
            let x = ctx.ld_global_f32(gm, self.x, &i);
            let two = ctx.splat_f32(2.0);
            let y = ctx.fma(&two, &x, &x);
            ctx.st_global_f32(gm, self.x, &i, &y);
        });
    }
}

fn bench(c: &mut Criterion) {
    let inst = aco_tsp::paper_instance("kroC100").expect("known instance");

    c.bench_function("tsplib_write_parse_roundtrip_100", |b| {
        let text = tsplib::write(&inst);
        b.iter(|| tsplib::parse(&text).expect("round trip"))
    });

    c.bench_function("nn_list_build_100x20", |b| {
        b.iter(|| NearestNeighborLists::build(inst.matrix(), 20).expect("valid"))
    });

    c.bench_function("two_opt_random_tour_100", |b| {
        let nn = NearestNeighborLists::build(inst.matrix(), 15).expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut t = Tour::random(100, &mut rng);
            aco_tsp::two_opt::two_opt(&mut t, inst.matrix(), &nn)
        })
    });

    c.bench_function("cpu_as_iteration_100", |b| {
        let mut aco = AntSystem::new(&inst, AcoParams::default().nn(20).seed(1));
        b.iter(|| aco.iterate(TourPolicy::NearestNeighborList).iter_best)
    });

    c.bench_function("cpu_as_iteration_full_100", |b| {
        let mut aco = AntSystem::new(&inst, AcoParams::default().nn(20).seed(1));
        b.iter(|| aco.iterate(TourPolicy::FullProbabilistic).iter_best)
    });

    c.bench_function("cpu_mmas_iteration_100", |b| {
        let params = AcoParams::default().nn(20).seed(1);
        let mut mmas = MaxMinAntSystem::new(&inst, params, MmasParams::default());
        b.iter(|| mmas.iterate())
    });

    c.bench_function("cpu_as_construct_only_100", |b| {
        let aco = AntSystem::new(&inst, AcoParams::default().nn(20).seed(1));
        let mut scratch = TourScratch::default();
        b.iter(|| {
            let mut rng = aco_simt::rng::PmRng::new(42);
            let mut c = OpCounter::default();
            aco.construct_one_with(&mut scratch, &mut rng, TourPolicy::NearestNeighborList, &mut c)
        })
    });

    c.bench_function("simt_saxpy_64k_lanes", |b| {
        let dev = DeviceSpec::tesla_m2050();
        b.iter(|| {
            let mut gm = GlobalMem::new();
            let x = gm.alloc_f32(65536);
            let k = Saxpy { x, n: 65536 };
            launch(&dev, &LaunchConfig::new(256, 256), &k, &mut gm, SimMode::Full).expect("valid")
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

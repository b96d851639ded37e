//! Golden counters for the SIMT interpreter.
//!
//! `parallel_launch` compares serial with parallel runs of the *same*
//! interpreter, so it cannot notice a rewrite that shifts a counter in
//! both. This suite pins the interpreter's output against committed
//! fingerprints instead. For every Table II row, every Table III row,
//! the GPU ACS kernels and one device `TwoOptNn` pass, on both modeled
//! devices, it hashes:
//!
//! - the `to_bits()` of every `KernelStats` field;
//! - the `to_bits()` of every `KernelTime` field (modeled ms);
//! - the bytes of the colony's tours, lengths, tau and choice buffers.
//!
//! A mismatch prints every fingerprint of the run, so an intended change
//! of the model can be re-recorded in one step. The small instance and a
//! two-tile data-parallel case (n = 300) run in the debug tier, as do
//! three data-parallel tile layouts `run_tour` does not pick and the
//! task-parallel layouts the sizes above miss (bit-packed shared tabu,
//! partial last block and warp, sampled blocks); the paper-sized ones are `#[ignore]`d for release
//! (`cargo test --release --test simt_golden -- --include-ignored`).

use aco_gpu::core::gpu::acs::{AcsGlobalUpdateKernel, AcsTourKernel};
use aco_gpu::core::gpu::choice::ChoiceKernel;
use aco_gpu::core::gpu::tour::DataParallelTourKernel;
use aco_gpu::core::gpu::{
    run_pheromone, run_tour, ColonyBuffers, GpuAntColonySystem, PheromoneStrategy, TourStrategy,
};
use aco_gpu::core::{AcoParams, AcsParams};
use aco_gpu::localsearch::{run_two_opt_window, TwoOptDev};
use aco_gpu::simt::prelude::*;
use aco_gpu::tsp;

/// FNV-1a over 64-bit words.
struct Fp(u64);

impl Fp {
    fn new() -> Self {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn u32s(&mut self, v: &[u32]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x as u64));
    }

    fn f32s(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x.to_bits() as u64));
    }

    fn stats(&mut self, s: &KernelStats) {
        // Destructured so a new counter cannot be left out silently.
        let KernelStats {
            warp_instructions,
            issue_cycles_per_sm,
            dram_bytes,
            ld_transactions,
            st_transactions,
            mem_warp_instructions,
            shared_accesses,
            bank_conflict_extra,
            atomic_ops,
            atomic_conflicts,
            divergent_branches,
            barriers,
            tex_hits,
            tex_misses,
            l1_hits,
            l1_misses,
            rng_calls,
        } = s;
        self.f64(*warp_instructions);
        self.word(issue_cycles_per_sm.len() as u64);
        issue_cycles_per_sm.iter().for_each(|&c| self.f64(c));
        for v in [
            dram_bytes,
            ld_transactions,
            st_transactions,
            mem_warp_instructions,
            shared_accesses,
            bank_conflict_extra,
            atomic_ops,
            atomic_conflicts,
            divergent_branches,
            barriers,
            tex_hits,
            tex_misses,
            l1_hits,
            l1_misses,
            rng_calls,
        ] {
            self.f64(*v);
        }
    }

    fn time(&mut self, t: &KernelTime) {
        let KernelTime { compute_ms, memory_ms, latency_ms, overhead_ms, total_ms } = t;
        for v in [compute_ms, memory_ms, latency_ms, overhead_ms, total_ms] {
            self.f64(*v);
        }
    }

    fn memory(&mut self, gm: &GlobalMem, bufs: ColonyBuffers) {
        self.u32s(gm.u32(bufs.tours));
        self.f32s(gm.f32(bufs.lengths));
        self.f32s(gm.f32(bufs.tau));
        self.f32s(gm.f32(bufs.choice));
    }
}

fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()]
}

fn params(n: usize, m: usize) -> AcoParams {
    AcoParams::default().nn((n / 2).min(30)).ants(m).seed(13)
}

fn instance(n: usize) -> tsp::TspInstance {
    tsp::uniform_random("simt-golden", n, 900.0, 7)
}

/// Fresh colony memory for the instance.
fn colony(inst: &tsp::TspInstance, m: usize) -> (GlobalMem, ColonyBuffers) {
    let mut gm = GlobalMem::new();
    let bufs = ColonyBuffers::allocate(&mut gm, inst, &params(inst.n(), m));
    (gm, bufs)
}

fn launch_fp(fp: &mut Fp, r: &LaunchResult) {
    fp.stats(&r.stats);
    fp.time(&r.time);
}

fn device_tag(dev: &DeviceSpec) -> &'static str {
    if dev.compute_capability.is_fermi() {
        "m2050"
    } else {
        "c1060"
    }
}

/// One Table II row on a fresh colony: its counters, modeled ms and memory.
fn tour_fp(dev: &DeviceSpec, inst: &tsp::TspInstance, m: usize, strategy: TourStrategy) -> u64 {
    tour_fp_in(dev, inst, m, strategy, SimMode::Full)
}

/// [`tour_fp`] with the construction kernel launched in `mode`.
fn tour_fp_in(
    dev: &DeviceSpec,
    inst: &tsp::TspInstance,
    m: usize,
    strategy: TourStrategy,
    mode: SimMode,
) -> u64 {
    let (mut gm, bufs) = colony(inst, m);
    let run = run_tour(dev, &mut gm, bufs, strategy, 1.0, 2.0, 11, 0, mode).unwrap();
    let mut fp = Fp::new();
    fp.stats(&run.stats);
    fp.time(&run.tour_time);
    if let Some(t) = &run.choice_time {
        fp.time(t);
    }
    fp.memory(&gm, bufs);
    fp.0
}

/// Every fingerprint of one instance size, labelled `device/kernel`.
fn fingerprints(n: usize, m: usize) -> Vec<(String, u64)> {
    let inst = instance(n);
    let mut out = Vec::new();
    for dev in devices() {
        let tag = device_tag(&dev);

        for strategy in TourStrategy::ALL {
            out.push((format!("{tag}/tour/{strategy:?}"), tour_fp(&dev, &inst, m, strategy)));
        }

        for strategy in PheromoneStrategy::ALL {
            let (mut gm, bufs) = colony(&inst, m);
            run_tour(&dev, &mut gm, bufs, TourStrategy::NNList, 1.0, 2.0, 5, 0, SimMode::Full)
                .unwrap();
            let run = run_pheromone(&dev, &mut gm, bufs, strategy, 0.5, SimMode::Full).unwrap();
            let mut fp = Fp::new();
            fp.stats(&run.stats);
            fp.time(&run.time);
            fp.memory(&gm, bufs);
            out.push((format!("{tag}/pheromone/{strategy:?}"), fp.0));
        }

        // GPU ACS kernels launched directly (their counters are not
        // surfaced by the colony), set up as the colony initialises them.
        {
            let (mut gm, bufs) = colony(&inst, m);
            let mut fp = Fp::new();
            let c_nn = tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
            let tau0 = 1.0 / (n as f32 * c_nn as f32);
            gm.f32_mut(bufs.tau).fill(tau0);
            let ck = ChoiceKernel { bufs, alpha: 0.0, beta: 2.0 };
            launch_fp(&mut fp, &launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap());
            bufs.clear_visited(&mut gm);
            let tk = AcsTourKernel { bufs, q0: 0.9, xi: 0.1, tau0, seed: 13, iteration: 0 };
            launch_fp(&mut fp, &launch(&dev, &tk.config(), &tk, &mut gm, SimMode::Full).unwrap());
            let lens = gm.f32(bufs.lengths);
            let best_ant = (0..m).min_by(|&a, &b| lens[a].total_cmp(&lens[b])).unwrap();
            let uk = AcsGlobalUpdateKernel {
                bufs,
                best_ant: best_ant as u32,
                best_len: lens[best_ant],
                rho: 0.1,
            };
            launch_fp(&mut fp, &launch(&dev, &uk.config(), &uk, &mut gm, SimMode::Full).unwrap());
            fp.memory(&gm, bufs);
            out.push((format!("{tag}/acs/kernels"), fp.0));
        }

        // The whole GPU ACS colony over two iterations.
        {
            let mut sys =
                GpuAntColonySystem::new(&inst, params(n, m), AcsParams::default(), dev.clone());
            let mut fp = Fp::new();
            for _ in 0..2 {
                let (best, tour_ms, update_ms, ls_ms) = sys.iterate().unwrap();
                fp.word(best);
                [tour_ms, update_ms, ls_ms].into_iter().for_each(|v| fp.f64(v));
            }
            fp.u32s(sys.best().unwrap().0.order());
            fp.f32s(sys.tau());
            out.push((format!("{tag}/acs/colony"), fp.0));
        }

        // One device TwoOptNn pass over ant 0 of a data-parallel colony.
        {
            let (mut gm, bufs) = colony(&inst, m);
            run_tour(
                &dev,
                &mut gm,
                bufs,
                TourStrategy::DataParallel,
                1.0,
                2.0,
                3,
                0,
                SimMode::Full,
            )
            .unwrap();
            let ls = TwoOptDev::allocate(
                &mut gm,
                bufs.n,
                bufs.nn,
                bufs.stride,
                bufs.dist,
                bufs.tours,
                bufs.lengths,
                bufs.nn_list,
            );
            let run = run_two_opt_window(&dev, &mut gm, ls, 0, 1, 1).unwrap();
            let mut fp = Fp::new();
            fp.stats(&run.stats);
            fp.f64(run.ms);
            fp.word(((run.rounds as u64) << 32) | run.moves as u64);
            fp.memory(&gm, bufs);
            out.push((format!("{tag}/two_opt_nn"), fp.0));
        }
    }
    out
}

/// The data-parallel rows only: at n = 300 a block covers the cities in
/// two 256-lane tiles, so each step also picks the best partial best.
fn two_tile_fingerprints() -> Vec<(String, u64)> {
    let inst = instance(300);
    let mut out = Vec::new();
    for dev in devices() {
        for strategy in [TourStrategy::DataParallel, TourStrategy::DataParallelTex] {
            let label = format!("{}/tour/{strategy:?}", device_tag(&dev));
            out.push((label, tour_fp(&dev, &inst, 2, strategy)));
        }
    }
    out
}

/// The data-parallel tile layouts `run_tour` does not reach: row 8 in
/// four 32-lane tiles (n = 100) and in one 512-lane tile (n = 300), and
/// plain row 7 at n = 33, whose last warp's clamped choice indices can
/// all be `n² − 1` (the broadcast-camping path).
fn tile_layout_fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for dev in devices() {
        let tag = device_tag(&dev);
        for (n, block) in [(100, 32), (300, 512)] {
            let inst = instance(n);
            let (mut gm, bufs) = colony(&inst, 3);
            let ck = ChoiceKernel { bufs, alpha: 1.0, beta: 2.0 };
            let mut fp = Fp::new();
            launch_fp(&mut fp, &launch(&dev, &ck.config(), &ck, &mut gm, SimMode::Full).unwrap());
            let k = DataParallelTourKernel {
                bufs,
                texture: true,
                seed: 11,
                iteration: 0,
                block_override: Some(block),
            };
            launch_fp(&mut fp, &launch(&dev, &k.config(), &k, &mut gm, SimMode::Full).unwrap());
            fp.memory(&gm, bufs);
            out.push((format!("{tag}/tour/DataParallelTex/n{n}/block{block}"), fp.0));
        }
        let fp = tour_fp(&dev, &instance(33), 4, TourStrategy::DataParallel);
        out.push((format!("{tag}/tour/DataParallel/n33"), fp));
    }
    out
}

/// The task-parallel layouts (rows 1–6) the other entries miss: rows 5–6
/// on the C1060 at n = 150, where 32 ants × 150 cities × 4 B exceed its
/// 16 KB and the shared tabu is bit-packed; every row with a partial last
/// block and warp (m = 40); and every row under block sampling with at
/// least four blocks (m = 400: four 128-ant blocks, thirteen 32-ant ones).
fn task_layout_fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let c1060 = DeviceSpec::tesla_c1060();
    for strategy in [TourStrategy::NNListShared, TourStrategy::NNListSharedTex] {
        let fp = tour_fp(&c1060, &instance(150), 8, strategy);
        out.push((format!("c1060/tour/{strategy:?}/n150"), fp));
    }
    for dev in devices() {
        let tag = device_tag(&dev);
        for strategy in &TourStrategy::ALL[..6] {
            let fp = tour_fp(&dev, &instance(30), 40, *strategy);
            out.push((format!("{tag}/tour/{strategy:?}/m40"), fp));
        }
        for strategy in &TourStrategy::ALL[..6] {
            let fp = tour_fp_in(&dev, &instance(16), 400, *strategy, SimMode::SampleBlocks(2));
            out.push((format!("{tag}/tour/{strategy:?}/sampled"), fp));
        }
    }
    out
}

fn check(n: usize, m: usize, expected: &[(&str, u64)]) {
    compare(&format!("n={n} m={m}"), fingerprints(n, m), expected);
}

fn compare(case: &str, actual: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let listing: String =
        actual.iter().map(|(label, fp)| format!("    (\"{label}\", {fp:#018x}),\n")).collect();
    let labels: Vec<&str> = actual.iter().map(|(l, _)| l.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, want, "case list changed; actual fingerprints:\n{listing}");
    let wrong: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((_, a), (_, e))| a != e)
        .map(|((l, _), _)| l.as_str())
        .collect();
    assert!(
        wrong.is_empty(),
        "{case}: fingerprints differ for {wrong:?}; actual fingerprints:\n{listing}"
    );
}

#[test]
fn small_instance_counters_are_golden() {
    check(24, 4, GOLDEN_N24);
}

#[test]
fn two_tile_data_parallel_counters_are_golden() {
    compare("n=300 m=2", two_tile_fingerprints(), GOLDEN_TWO_TILE);
}

#[test]
fn tile_layout_counters_are_golden() {
    compare("tile layouts", tile_layout_fingerprints(), GOLDEN_TILE_LAYOUTS);
}

#[test]
fn task_layout_counters_are_golden() {
    compare("task layouts", task_layout_fingerprints(), GOLDEN_TASK_LAYOUTS);
}

#[test]
#[ignore = "paper-sized; run in release with --include-ignored"]
fn n48_counters_are_golden() {
    check(48, 48, GOLDEN_N48);
}

#[test]
#[ignore = "paper-sized; run in release with --include-ignored"]
fn n100_counters_are_golden() {
    check(100, 100, GOLDEN_N100);
}

// Recorded on the interpreter before its word-wise/full-mask rewrite;
// the rewrite must not move a single bit. The `two_opt_nn` entries were
// re-recorded when the device 2-opt became one windowed family: rounds,
// moves and colony memory are unchanged, while the per-ant scratch
// indexing adds 4-5% warp instructions and up to 0.04% C1060 modeled ms.
const GOLDEN_N24: &[(&str, u64)] = &[
    ("c1060/tour/Baseline", 0xd9f430abcc24e600),
    ("c1060/tour/ChoiceKernel", 0x90950bcc51e6c323),
    ("c1060/tour/DeviceRng", 0x5ddde88f9aaed977),
    ("c1060/tour/NNList", 0x3ad1c8d2c5908b3d),
    ("c1060/tour/NNListShared", 0x6c38a9b8140f4162),
    ("c1060/tour/NNListSharedTex", 0x977c07d0f4923758),
    ("c1060/tour/DataParallel", 0xf033995ff5795a33),
    ("c1060/tour/DataParallelTex", 0x74afbea7fc67828a),
    ("c1060/pheromone/AtomicShared", 0x7fd1b1f08e7bd791),
    ("c1060/pheromone/Atomic", 0x333209df0ff9f8d8),
    ("c1060/pheromone/Reduction", 0xa6ee855960ea2b0e),
    ("c1060/pheromone/ScatterTiled", 0x6fa863ccd57c6fa1),
    ("c1060/pheromone/Scatter", 0x347eae75a6c41ed5),
    ("c1060/acs/kernels", 0x940f898c461e7c9e),
    ("c1060/acs/colony", 0x75b597d18f132289),
    ("c1060/two_opt_nn", 0xe21e44965fa89595),
    ("m2050/tour/Baseline", 0x1b7c5a1943f52b39),
    ("m2050/tour/ChoiceKernel", 0xcc51f8ab8de01814),
    ("m2050/tour/DeviceRng", 0xbecd0e85305d28e2),
    ("m2050/tour/NNList", 0xc1bf9b968a6fd85d),
    ("m2050/tour/NNListShared", 0xb191d4d485392dbd),
    ("m2050/tour/NNListSharedTex", 0xc3073b85c4733508),
    ("m2050/tour/DataParallel", 0xcb677b9deb21e4bd),
    ("m2050/tour/DataParallelTex", 0x593b6b523539c426),
    ("m2050/pheromone/AtomicShared", 0xc6c12c512316d438),
    ("m2050/pheromone/Atomic", 0xc3b6649a70efdcb6),
    ("m2050/pheromone/Reduction", 0x754db79091301db4),
    ("m2050/pheromone/ScatterTiled", 0x4107dc5de8b7c9fe),
    ("m2050/pheromone/Scatter", 0xe6cdb15fc14a0342),
    ("m2050/acs/kernels", 0x09a5eca9e93ecc8f),
    ("m2050/acs/colony", 0x9046cd3764c75929),
    ("m2050/two_opt_nn", 0xde1212557864248f),
];

const GOLDEN_N48: &[(&str, u64)] = &[
    ("c1060/tour/Baseline", 0x10aae879ad8b9942),
    ("c1060/tour/ChoiceKernel", 0x7261b390d1a59984),
    ("c1060/tour/DeviceRng", 0xcecd7270a065482a),
    ("c1060/tour/NNList", 0x9c4aeba3f785c18e),
    ("c1060/tour/NNListShared", 0xbb1dfd94d6107d5e),
    ("c1060/tour/NNListSharedTex", 0x73e8a96cfdddf15b),
    ("c1060/tour/DataParallel", 0xea1f82d852b296e0),
    ("c1060/tour/DataParallelTex", 0x1c131b80516a8853),
    ("c1060/pheromone/AtomicShared", 0x26b85f8866dc6288),
    ("c1060/pheromone/Atomic", 0xf01ba752e5bf7897),
    ("c1060/pheromone/Reduction", 0xc131b275536a6ccf),
    ("c1060/pheromone/ScatterTiled", 0x9a909d8dd3186d40),
    ("c1060/pheromone/Scatter", 0xf44adb88f1a10985),
    ("c1060/acs/kernels", 0xffe76e974b958f79),
    ("c1060/acs/colony", 0xc5ecb1b720c99f07),
    ("c1060/two_opt_nn", 0x188d82d765ad4203),
    ("m2050/tour/Baseline", 0x5b48f8588d27afe6),
    ("m2050/tour/ChoiceKernel", 0x10d36466296dfa87),
    ("m2050/tour/DeviceRng", 0xb9b83d36fcdb6dcf),
    ("m2050/tour/NNList", 0x1cff126937fc4a4f),
    ("m2050/tour/NNListShared", 0x2c66572a5151536d),
    ("m2050/tour/NNListSharedTex", 0xb363ee1b51a597e5),
    ("m2050/tour/DataParallel", 0xa37992f30c3f4529),
    ("m2050/tour/DataParallelTex", 0x59b94a2fa178bde2),
    ("m2050/pheromone/AtomicShared", 0xb168dd40f83db398),
    ("m2050/pheromone/Atomic", 0xac0f9ca811b62a41),
    ("m2050/pheromone/Reduction", 0xd8610dddb6db3e77),
    ("m2050/pheromone/ScatterTiled", 0x011a393d01f25d11),
    ("m2050/pheromone/Scatter", 0x814d94737e09639d),
    ("m2050/acs/kernels", 0x4b391ba04c5782b0),
    ("m2050/acs/colony", 0xa74a4bf9cbef8458),
    ("m2050/two_opt_nn", 0x7aefebe22904d73a),
];

const GOLDEN_N100: &[(&str, u64)] = &[
    ("c1060/tour/Baseline", 0xe9056e8e82b0bfa6),
    ("c1060/tour/ChoiceKernel", 0x30f3acc4900b4e34),
    ("c1060/tour/DeviceRng", 0x3a806d6fcb57e378),
    ("c1060/tour/NNList", 0x52ac5d80f8305b7f),
    ("c1060/tour/NNListShared", 0x1d18ffce6dc3048e),
    ("c1060/tour/NNListSharedTex", 0xb3f802f887a06e80),
    ("c1060/tour/DataParallel", 0xb34647708f7dc25a),
    ("c1060/tour/DataParallelTex", 0x3323f751ac0b5b7b),
    ("c1060/pheromone/AtomicShared", 0xfd298715a68dbc05),
    ("c1060/pheromone/Atomic", 0xba5fdec7d911b95a),
    ("c1060/pheromone/Reduction", 0x05112bdcb12c8b86),
    ("c1060/pheromone/ScatterTiled", 0xa2a3caeddfa15d7b),
    ("c1060/pheromone/Scatter", 0x4e38ddbd85e152ac),
    ("c1060/acs/kernels", 0x87fe1eb13e0b464e),
    ("c1060/acs/colony", 0xd29f80b91d87af2b),
    ("c1060/two_opt_nn", 0x2eb25f0009b5f79d),
    ("m2050/tour/Baseline", 0x01d0c38a65d85d93),
    ("m2050/tour/ChoiceKernel", 0x115bc70313ec6032),
    ("m2050/tour/DeviceRng", 0xc349093c6acd36ba),
    ("m2050/tour/NNList", 0x541b1f7c16fdb1a8),
    ("m2050/tour/NNListShared", 0xde3f981790b4cbaf),
    ("m2050/tour/NNListSharedTex", 0xc2af2cab0a54106b),
    ("m2050/tour/DataParallel", 0x8a03b7f9f10461fd),
    ("m2050/tour/DataParallelTex", 0x368c33de7523a226),
    ("m2050/pheromone/AtomicShared", 0x27a1ffcae6d369f6),
    ("m2050/pheromone/Atomic", 0x6227298b59794134),
    ("m2050/pheromone/Reduction", 0x4dfae1a808da2b25),
    ("m2050/pheromone/ScatterTiled", 0x0212b43bb4f5b14a),
    ("m2050/pheromone/Scatter", 0xf4285a0433095356),
    ("m2050/acs/kernels", 0xa9a660b6ef604f3f),
    ("m2050/acs/colony", 0xb18ee0f470e94466),
    ("m2050/two_opt_nn", 0x249968e63d9dab62),
];

// Recorded on the written-out shared-memory argmax loop of the
// data-parallel tour kernel.
const GOLDEN_TWO_TILE: &[(&str, u64)] = &[
    ("c1060/tour/DataParallel", 0xb38cc0f4258f4586),
    ("c1060/tour/DataParallelTex", 0x84b516f18c0f017e),
    ("m2050/tour/DataParallel", 0xbecdbe2346536a2a),
    ("m2050/tour/DataParallelTex", 0x164bf95491c9bdc1),
];

// Recorded on the op-by-op construction tile (one lane-wise op per index,
// tabu, load, draw, product and select step).
const GOLDEN_TILE_LAYOUTS: &[(&str, u64)] = &[
    ("c1060/tour/DataParallelTex/n100/block32", 0xa40e44fab24a0b8b),
    ("c1060/tour/DataParallelTex/n300/block512", 0x44c837731e8a10a8),
    ("c1060/tour/DataParallel/n33", 0xbca8f06e1de8aa8e),
    ("m2050/tour/DataParallelTex/n100/block32", 0x4826e08714dd0d99),
    ("m2050/tour/DataParallelTex/n300/block512", 0x4e88ce3bd8a1489f),
    ("m2050/tour/DataParallel/n33", 0x44d713e8da8e677d),
];

// Recorded on the op-by-op task kernel (every probability, candidate,
// fallback and tabu step as lane-wise ops).
const GOLDEN_TASK_LAYOUTS: &[(&str, u64)] = &[
    ("c1060/tour/NNListShared/n150", 0xad8239f1e1c3810c),
    ("c1060/tour/NNListSharedTex/n150", 0xeb8a41b07f2a91c1),
    ("c1060/tour/Baseline/m40", 0xf211852350334b4b),
    ("c1060/tour/ChoiceKernel/m40", 0xddcf13ac8a20dd0d),
    ("c1060/tour/DeviceRng/m40", 0xdd461f2e1ca46ec2),
    ("c1060/tour/NNList/m40", 0x946c7e181bfbec4b),
    ("c1060/tour/NNListShared/m40", 0x40de2910c1b4874f),
    ("c1060/tour/NNListSharedTex/m40", 0xc13b73cef08df01e),
    ("c1060/tour/Baseline/sampled", 0x107b0e8c5a746648),
    ("c1060/tour/ChoiceKernel/sampled", 0x6de900ddad0f184a),
    ("c1060/tour/DeviceRng/sampled", 0xe1a8abb8cb087b36),
    ("c1060/tour/NNList/sampled", 0xe82bb9ebebd4aa62),
    ("c1060/tour/NNListShared/sampled", 0x5ecd60607a3920d7),
    ("c1060/tour/NNListSharedTex/sampled", 0xab6640b95d106fc9),
    ("m2050/tour/Baseline/m40", 0x0df863728d94e9b9),
    ("m2050/tour/ChoiceKernel/m40", 0xd779a7a27befdb24),
    ("m2050/tour/DeviceRng/m40", 0x3b720898d59f6a62),
    ("m2050/tour/NNList/m40", 0xdee0aed4a11a74a6),
    ("m2050/tour/NNListShared/m40", 0xf6d285da9e0db728),
    ("m2050/tour/NNListSharedTex/m40", 0x5f9b26133199e5aa),
    ("m2050/tour/Baseline/sampled", 0xefc59a698bc2af37),
    ("m2050/tour/ChoiceKernel/sampled", 0xc7e47bb29c0f1ca6),
    ("m2050/tour/DeviceRng/sampled", 0xa03d1c147c60d5aa),
    ("m2050/tour/NNList/sampled", 0x24a5d9ce183861e8),
    ("m2050/tour/NNListShared/sampled", 0x373cb951483ed1e4),
    ("m2050/tour/NNListSharedTex/sampled", 0xa14f5828fbf13866),
];

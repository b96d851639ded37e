//! `BlockCtx::loop_pass` against the written-out loop it stands for.
//!
//! The roulette scan of the task-parallel tour rows,
//! `while (cum < target && j < lim) { j++; cum += prob[row + j]; }`, runs
//! once as a loop pass (a declared test and step tally, the test asked per
//! lane into a mask kept in place, the `prob` load through the per-lane
//! global access) and once op by op, as the kernel was written before:
//! a `loop_while` whose body compares, branches with `if_then` and, in
//! the `if`, adds, assigns and loads with `ld_global_f32`.
//!
//! Each lane scans its own `N`-word row of `prob` and stops after a trip
//! count fixed per lane (its target is the running sum it reaches there,
//! or infinite for the `N - 1` cap). The loop is cut after `k` trips for
//! every `k` up to the longest scan, so the two forms are compared after
//! every trip: the words each trip loaded, each lane's `j` and `cum`, and
//! every `KernelStats` bit, with a trailing probe load of every line of
//! `prob` by the whole block, whose L1 hits and misses on the M2050
//! depend on the order of every lookup the scan made.

use std::sync::Mutex;

use aco_simt::prelude::*;

/// Lanes per block.
const BLOCK: u32 = 128;

/// Words per lane's row of `prob`: the scan's cap is `N - 1` trips.
const N: u32 = 40;

/// Words in a 128-byte line.
const LINE_WORDS: u32 = 32;

/// The test's instructions per looping warp (the loop and `if` branches
/// and two compares) and the step's per continuing warp (two adds, two
/// moves and the running sum), as the written-out form charges them.
const TEST: Tally = Tally::NONE.op(Op::Branch, 2).op(Op::FAlu, 2);
const STEP: Tally = Tally::NONE.op(Op::IAlu, 2).op(Op::Mov, 2).op(Op::FAlu, 1);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Pass,
    WrittenOut,
}

/// How many trips each lane makes when uncut.
#[derive(Debug, Clone, Copy)]
enum Trips {
    /// Every lane exits on the first test.
    Zero,
    /// Mixed within each warp: lanes 16 apart exit on the first test,
    /// lanes 3 and 19 run into the `N - 1` cap, and each later warp's
    /// lanes stop sooner than the warp before, so warps end on different
    /// trips.
    Spread,
}

impl Trips {
    fn of(self, lane: u32) -> u32 {
        match self {
            Trips::Zero => 0,
            Trips::Spread if lane % 16 == 0 => 0,
            Trips::Spread if lane == 3 || lane == 19 => N - 1,
            Trips::Spread => lane * 13 % N * (4 - lane / 32) / 4,
        }
    }
}

fn mix(x: u32) -> u32 {
    let mut x = x.wrapping_mul(0x9E37_79B9) ^ 0x85EB_CA6B;
    x ^= x >> 15;
    x = x.wrapping_mul(0x2C1B_3C6D);
    x ^ (x >> 12)
}

/// `prob[i]`: positive, so the running sum strictly increases.
fn prob(i: u32) -> f32 {
    0.05 + (mix(i) % 1000) as f32 / 1000.0
}

/// The target that stops `lane` after `trips` trips: the running sum it
/// holds then (so the test `cum < target` first fails there), or infinity
/// for a scan that runs into the cap.
fn target(lane: u32, trips: u32) -> f32 {
    if trips >= N - 1 {
        return f32::INFINITY;
    }
    (1..=trips).fold(prob(lane * N), |cum, j| cum + prob(lane * N + j))
}

/// What a run leaves: each trip's loaded words (active lanes, lane order),
/// each active lane's final `j` and `cum` bits, and the counter bits.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    loaded: Vec<Vec<u32>>,
    lanes: Vec<(u32, u32)>,
    stats: Vec<u64>,
}

struct Scan {
    form: Form,
    lanes: fn(usize) -> bool,
    trips: Trips,
    /// Trips after which every lane stops.
    cut: u32,
    prob: DevicePtr<f32>,
    /// The words and lanes; the counters are filled in after the launch.
    out: Mutex<Outcome>,
}

impl Kernel for Scan {
    fn name(&self) -> &'static str {
        "loop_pass_scan"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let active = Mask::from_fn(ctx.block_dim as usize, self.lanes);
        let lim = self.cut.min(N - 1);
        ctx.with_mask(gm, &active, |ctx, gm| {
            // Uncharged setup registers: a pass of no instructions.
            let pass = ctx.lane_pass(Tally::NONE);
            let row = pass.reg(|l| l as u32 * N);
            let target = pass.reg(|l| target(l as u32, self.trips.of(l as u32)));
            let mut j = ctx.splat_u32(0);
            let mut cum = ctx.ld_global_f32(gm, self.prob, &row);
            let mut loaded = Vec::new();
            match self.form {
                Form::Pass => {
                    ctx.charge(Op::Mov, 2);
                    let mut scan = (j, cum);
                    ctx.loop_pass(
                        &mut scan,
                        TEST,
                        STEP,
                        |(j, cum), l| cum.lane(l) < target.lane(l) && j.lane(l) < lim,
                        |pass, (j, cum)| {
                            let mut got = Vec::new();
                            let next = |l| {
                                j.set_lane(l, j.lane(l) + 1);
                                row.lane(l) + j.lane(l)
                            };
                            pass.ld_f32(gm, self.prob, false, next, |l, p| {
                                cum.set_lane(l, cum.lane(l) + p);
                                got.push(p.to_bits());
                            });
                            loaded.push(got);
                        },
                    );
                    (j, cum) = scan;
                }
                Form::WrittenOut => {
                    let one = ctx.splat_u32(1);
                    let lim = ctx.splat_u32(lim);
                    ctx.loop_while(gm, |ctx, gm| {
                        let below = ctx.flt(&cum, &target);
                        let more = ctx.ult(&j, &lim);
                        let cont = below.and(&more);
                        ctx.if_then(gm, &cont.clone(), |ctx, gm| {
                            let jn = ctx.iadd(&j, &one);
                            ctx.assign_u32(&mut j, &jn);
                            let pidx = ctx.iadd(&row, &j);
                            let p = ctx.ld_global_f32(gm, self.prob, &pidx);
                            let mut got = Vec::new();
                            ctx.active().for_each_lane(|l| got.push(p.lane(l).to_bits()));
                            loaded.push(got);
                            let cn = ctx.fadd(&cum, &p);
                            ctx.assign_f32(&mut cum, &cn);
                        });
                        cont
                    });
                }
            }
            let mut lanes = Vec::new();
            ctx.active().for_each_lane(|l| lanes.push((j.lane(l), cum.lane(l).to_bits())));
            *self.out.lock().unwrap() = Outcome { loaded, lanes, stats: Vec::new() };
        });
        // The probe: one lane per line of `prob`, ascending, 128 lines per
        // load.
        let lines = BLOCK * N / LINE_WORDS;
        for first in (0..lines).step_by(BLOCK as usize) {
            let probe = Mask::from_fn(BLOCK as usize, |l| first + (l as u32) < lines);
            ctx.with_mask(gm, &probe, |ctx, gm| {
                let mut pass = ctx.lane_pass(Tally::NONE);
                pass.ld_f32(gm, self.prob, false, |l| (first + l as u32) * LINE_WORDS, |_, _| {});
            });
        }
    }
}

/// Every counter bit of a launch; destructured so a new counter cannot be
/// left out silently.
fn stat_bits(s: &KernelStats) -> Vec<u64> {
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
    let mut bits: Vec<u64> = issue_cycles_per_sm.iter().map(|c| c.to_bits()).collect();
    for v in [
        warp_instructions,
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
        bits.push(v.to_bits());
    }
    bits
}

fn run(dev: &DeviceSpec, form: Form, lanes: fn(usize) -> bool, trips: Trips, cut: u32) -> Outcome {
    let mut gm = GlobalMem::new();
    let buf = gm.alloc_f32((BLOCK * N) as usize);
    gm.write_f32(buf, &(0..BLOCK * N).map(prob).collect::<Vec<_>>());
    let k = Scan { form, lanes, trips, cut, prob: buf, out: Mutex::new(Default::default()) };
    let r = launch(dev, &LaunchConfig::new(1, BLOCK), &k, &mut gm, SimMode::Full).unwrap();
    Outcome { stats: stat_bits(&r.stats), ..k.out.into_inner().unwrap() }
}

fn assert_matches_written_out(case: &str, lanes: fn(usize) -> bool) {
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        for trips in [Trips::Zero, Trips::Spread] {
            let longest = (0..BLOCK).filter(|&l| lanes(l as usize)).map(|l| trips.of(l)).max();
            for cut in 0..=longest.expect("a case has active lanes") {
                let want = run(&dev, Form::WrittenOut, lanes, trips, cut);
                let got = run(&dev, Form::Pass, lanes, trips, cut);
                assert_eq!(got, want, "{case}, {}, {trips:?} trips, cut after {cut}", dev.name);
            }
        }
    }
}

#[test]
fn eight_of_128_lanes() {
    // The task-parallel rows at m = 8: one ant per lane of warp 0.
    assert_matches_written_out("8 of 128 lanes", |l| l < 8);
}

#[test]
fn forty_lanes_across_two_warps() {
    assert_matches_written_out("40 lanes", |l| l < 40);
}

#[test]
fn full_block() {
    assert_matches_written_out("full block", |_| true);
}

#[test]
fn upper_half_warps_only() {
    assert_matches_written_out("upper half-warps", |l| l % 32 >= 16);
}

#[test]
fn spread_reaches_both_ends_in_every_layout() {
    let layouts: [fn(usize) -> bool; 4] = [|l| l < 8, |l| l < 40, |_| true, |l| l % 32 >= 16];
    for lanes in layouts {
        let trips: Vec<u32> =
            (0..BLOCK).filter(|&l| lanes(l as usize)).map(|l| Trips::Spread.of(l)).collect();
        assert!(trips.contains(&0) && trips.contains(&(N - 1)), "{trips:?}");
    }
}

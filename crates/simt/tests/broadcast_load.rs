//! The broadcast global load ([`BlockCtx::ld_global_u32_uniform`]) against
//! the per-lane load of one splatted address, on the full block and on
//! masks the kernels that use it never run under.
//!
//! Each case runs one script of loads under one active mask, once with
//! broadcast loads and once with `splat_u32` plus `ld_global_u32` (the
//! broadcast side charges the splat's move itself), and compares the
//! words every load returned and every `KernelStats` and `KernelTime`
//! bit, on the Tesla C1060 (half-warp segments, no cache) and the M2050
//! (the L1, whose hit/miss sequence and LRU state later loads read).

use std::sync::Mutex;

use aco_simt::prelude::*;

/// One load of the script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Every active lane reads this word.
    Broadcast(u32),
    /// Every active lane reads the first word of line `t + 1`, `t` its
    /// thread index: on the M2050 the 128 lanes of a block fill each L1
    /// set, evicting the line of the script's first loads.
    PerLane,
}

/// Loads of one line twice and of a second word in it, then of a new
/// line; a per-lane load; then the first line again (an L1 miss once the
/// per-lane load evicted it) and a third line.
const SCRIPT: [Step; 7] = [
    Step::Broadcast(3),
    Step::Broadcast(3),
    Step::Broadcast(5),
    Step::Broadcast(40),
    Step::PerLane,
    Step::Broadcast(3),
    Step::Broadcast(200),
];

/// Words of the loaded buffer: one 32-word line per thread of a block
/// past the first line.
const WORDS: usize = 32 * 129;

struct Script {
    broadcast: bool,
    lanes: fn(usize) -> bool,
    buf: DevicePtr<u32>,
    /// Each broadcast step's word, per block in block order.
    words: Mutex<Vec<(u32, u32)>>,
}

impl Kernel for Script {
    fn name(&self) -> &'static str {
        "broadcast_script"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let active = Mask::from_fn(ctx.block_dim as usize, self.lanes);
        ctx.with_mask(gm, &active, |ctx, gm| {
            for step in SCRIPT {
                match step {
                    Step::Broadcast(idx) => {
                        let word = if self.broadcast {
                            ctx.charge(Op::Mov, 1);
                            ctx.ld_global_u32_uniform(gm, self.buf, idx)
                        } else {
                            let at = ctx.splat_u32(idx);
                            let got = ctx.ld_global_u32(gm, self.buf, &at);
                            let mut lanes = Vec::new();
                            ctx.active().for_each_lane(|l| lanes.push(got.lane(l)));
                            assert!(lanes.iter().all(|&w| w == lanes[0]), "lanes disagree");
                            lanes[0]
                        };
                        self.words.lock().unwrap().push((ctx.block_idx, word));
                    }
                    Step::PerLane => {
                        let t = ctx.thread_idx();
                        let one = ctx.splat_u32(1);
                        let next = ctx.iadd(&t, &one);
                        let line_words = ctx.splat_u32(32);
                        let at = ctx.imul(&next, &line_words);
                        let _ = ctx.ld_global_u32(gm, self.buf, &at);
                    }
                }
            }
        });
    }
}

/// The launch's counters and modeled time, printed (`f64`'s `Debug`
/// round-trips, so equal text is equal bits), and the loaded words.
fn run(
    dev: &DeviceSpec,
    block: u32,
    lanes: fn(usize) -> bool,
    broadcast: bool,
) -> (String, Vec<(u32, u32)>) {
    let mut gm = GlobalMem::new();
    let buf = gm.alloc_u32(WORDS);
    let data: Vec<u32> = (0..WORDS as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    gm.write_u32(buf, &data);
    let k = Script { broadcast, lanes, buf, words: Mutex::new(Vec::new()) };
    let r = launch(dev, &LaunchConfig::new(2, block), &k, &mut gm, SimMode::Full).unwrap();
    let words = k.words.into_inner().unwrap();
    assert_eq!(words.len(), 2 * (SCRIPT.len() - 1), "every broadcast step ran");
    (format!("{:?} {:?}", r.stats, r.time), words)
}

fn assert_broadcast_matches_per_lane(case: &str, lanes: fn(usize) -> bool) {
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        // A whole number of warps, and a trailing half warp.
        for block in [128, 80] {
            let per_lane = run(&dev, block, lanes, false);
            let broadcast = run(&dev, block, lanes, true);
            assert_eq!(broadcast, per_lane, "{case}, {}, block {block}", dev.name);
        }
    }
}

#[test]
fn full_block() {
    assert_broadcast_matches_per_lane("full block", |_| true);
}

#[test]
fn fifteen_lanes_next_to_sixteen() {
    // Warp 0: lanes 1, 3, ..., 29 (15, both halves, no camping); warp 1:
    // its 16 even lanes (camping); warp 2: one lane.
    assert_broadcast_matches_per_lane("15 next to 16 lanes", |l| match l {
        0..=31 => l % 2 == 1 && l < 30,
        32..=63 => l % 2 == 0,
        _ => l == 70,
    });
}

#[test]
fn upper_half_warp_only() {
    // Warp 1 runs its upper half only (16 lanes, camping), warp 2 a few
    // lanes of its upper half (no camping): one CC 1.3 segment each.
    assert_broadcast_matches_per_lane("upper half only", |l| {
        (48..64).contains(&l) || ((80..96).contains(&l) && l % 3 == 0)
    });
}

#[test]
fn fully_inactive_warp() {
    // Warp 1 has no active lane between two full warps.
    assert_broadcast_matches_per_lane("inactive warp", |l| !(32..64).contains(&l));
}

//! Per-lane global loads and stores against a written-out copy of the
//! two-walk access they replace.
//!
//! The interpreter moves each active lane's word and charges each warp in
//! one walk over the lanes (`BlockCtx`'s global access, with the order-free
//! CC 1.3 totals and lane-order L1 lines of `aco_simt::coalesce`). The
//! [`Reference`] here does what the interpreter did before: one walk
//! gathers every active lane's address and charges the access warp by
//! warp through `coalesce_cc13_half_warp` (C1060) or `lines_cc20` and a
//! [`Cache`] (the M2050's L1), and a second walk moves the words.
//!
//! Each case runs one script of loads and stores, register and lane-pass
//! forms, u32 and f32 words, under one active mask of a 128-lane block.
//! After every prefix of the script the two must agree on the words each
//! load returned, the memory each store left and every `KernelStats` bit,
//! so every access's L1 hits and misses agree too. The script re-reads
//! lines whose L1 residency depends on the order of the previous access's
//! lookups, so an L1 fed out of ascending order fails it. The whole
//! script also runs over two blocks on two host threads, whose stores go
//! through shadow arenas' logs and are committed from them, so a log out
//! of lane order leaves different words where lanes race.

use std::sync::Mutex;

use aco_simt::block::op_cycles;
use aco_simt::cache::Cache;
use aco_simt::coalesce::{coalesce_cc13_half_warp, lines_cc20};
use aco_simt::prelude::*;

/// Lanes per block.
const BLOCK: u32 = 128;

/// Threads per warp.
const WARP: u32 = 32;

/// Words of one block's region of each buffer; block `b` accesses words
/// `b * REGION..(b + 1) * REGION`, so no block reads another's stores. A
/// whole number of L1 sets of lines, so both regions map alike.
const REGION: u32 = 16 * 1024;

/// Words in a 128-byte line, and M2050 L1 sets (16 KB, 8 ways).
const LINE_WORDS: u32 = 32;
const L1_SETS: u32 = 16;

/// Byte addresses of the two buffers: a fresh `GlobalMem` places its first
/// buffer at 256 and each next one at the following 256-byte boundary.
const BASE_U32: u64 = 256;
const BASE_F32: u64 = BASE_U32 + 4 * 2 * REGION as u64;

/// How each lane picks its word at step `r`.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Consecutive words from `9 r`: aligned and unaligned segments.
    Contiguous,
    /// One 100-word row per lane, column `r % 100`: the task-parallel
    /// rows' tabu and probability shape.
    RowStrided,
    /// A hash of lane and step.
    Random,
    /// Within each warp, one line per lane, in descending order, all in
    /// the warp's own L1 set.
    Descending,
    /// Four lanes per word, words 3 apart.
    Duplicate,
    /// One word for every lane: the highest line of warp 0's
    /// `Descending` lines, which the L1 keeps only when it saw those lines
    /// in ascending order.
    Single,
}

impl Pattern {
    fn index(self, lane: u32, r: u32) -> u32 {
        let (w, l) = (lane / WARP, lane % WARP);
        match self {
            Pattern::Contiguous => 9 * r + lane,
            Pattern::RowStrided => lane * 100 + r % 100,
            Pattern::Random => mix(lane * 7919 + r * 104_729) % REGION,
            Pattern::Descending => ((WARP - 1 - l) * L1_SETS + w) * LINE_WORDS,
            Pattern::Duplicate => lane / 4 * 3 + r,
            Pattern::Single => (WARP - 1) * L1_SETS * LINE_WORDS,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Load,
    Store,
}

/// `U32` goes through the register ops (`ld_global_u32`, `st_global_u32`)
/// on the u32 buffer, `F32` through the lane-pass closures (`ld_f32`,
/// `st_global_f32`) on the f32 buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    U32,
    F32,
}

type Step = (Kind, Form, Pattern);

const SCRIPT: [Step; 16] = {
    use Form::*;
    use Kind::*;
    use Pattern::*;
    [
        (Load, U32, Contiguous),
        (Store, F32, Contiguous),
        (Load, F32, RowStrided),
        (Store, U32, RowStrided),
        (Load, U32, Random),
        (Store, U32, Random),
        (Load, U32, Descending),
        (Load, U32, Single),
        (Store, F32, Descending),
        (Store, U32, Duplicate),
        (Load, U32, Duplicate),
        (Load, F32, Single),
        (Store, U32, Single),
        (Load, F32, Random),
        (Load, U32, RowStrided),
        (Load, U32, Contiguous),
    ]
};

fn mix(x: u32) -> u32 {
    let mut x = x.wrapping_mul(0x9E37_79B9) ^ 0x85EB_CA6B;
    x ^= x >> 15;
    x = x.wrapping_mul(0x2C1B_3C6D);
    x ^ (x >> 12)
}

/// The word lane `lane` of block `block` stores at step `r`: the bits of
/// a positive finite f32, so both buffers hold it unchanged.
fn value(block: u32, lane: u32, r: u32) -> u32 {
    mix(block << 24 ^ r << 8 ^ lane ^ 0x5555) & 0x3FFF_FFFF
}

/// Initial bits of word `i` of buffer `salt`.
fn initial(salt: u32, i: u32) -> u32 {
    mix(i ^ salt) & 0x3FFF_FFFF
}

/// What a run leaves: its counters, each load's words (block, step, the
/// active lanes' words in lane order) and both buffers' bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: KernelStats,
    loaded: Vec<(u32, usize, Vec<u32>)>,
    mem_u32: Vec<u32>,
    mem_f32: Vec<u32>,
}

struct Script {
    steps: Vec<Step>,
    lanes: fn(usize) -> bool,
    buf_u: DevicePtr<u32>,
    buf_f: DevicePtr<f32>,
    loaded: Mutex<Vec<(u32, usize, Vec<u32>)>>,
}

impl Kernel for Script {
    fn name(&self) -> &'static str {
        "global_access_script"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let active = Mask::from_fn(ctx.block_dim as usize, self.lanes);
        let block = ctx.block_idx;
        ctx.with_mask(gm, &active, |ctx, gm| {
            for (r, &(kind, form, pattern)) in self.steps.iter().enumerate() {
                let r32 = r as u32;
                let at = |l: usize| block * REGION + pattern.index(l as u32, r32);
                let val = |l: usize| value(block, l as u32, r32);
                let mut got = Vec::new();
                // Uncharged index and value registers: a pass of no
                // instructions charges nothing.
                match (kind, form) {
                    (Kind::Load, Form::U32) => {
                        let idx = ctx.lane_pass(Tally::NONE).reg(at);
                        let words = ctx.ld_global_u32(gm, self.buf_u, &idx);
                        ctx.active().for_each_lane(|l| got.push(words.lane(l)));
                    }
                    (Kind::Load, Form::F32) => {
                        let mut pass = ctx.lane_pass(Tally::NONE);
                        pass.ld_f32(gm, self.buf_f, false, at, |_, v| got.push(v.to_bits()));
                    }
                    (Kind::Store, Form::U32) => {
                        let pass = ctx.lane_pass(Tally::NONE);
                        let (idx, words) = (pass.reg(at), pass.reg(val));
                        ctx.st_global_u32(gm, self.buf_u, &idx, &words);
                    }
                    (Kind::Store, Form::F32) => {
                        let mut pass = ctx.lane_pass(Tally::NONE);
                        pass.st_global_f32(gm, self.buf_f, at, |l| f32::from_bits(val(l)));
                    }
                }
                if kind == Kind::Load {
                    self.loaded.lock().unwrap().push((block, r, got));
                }
            }
        });
    }
}

fn fresh_memory() -> (Vec<u32>, Vec<u32>) {
    let words = 2 * REGION;
    ((0..words).map(|i| initial(1, i)).collect(), (0..words).map(|i| initial(2, i)).collect())
}

/// The interpreter's run of `steps` over `blocks` blocks on `threads`
/// host threads.
fn run(
    dev: &DeviceSpec,
    steps: &[Step],
    lanes: fn(usize) -> bool,
    blocks: u32,
    threads: usize,
) -> Outcome {
    let mut gm = GlobalMem::new();
    let buf_u = gm.alloc_u32(2 * REGION as usize);
    let buf_f = gm.alloc_f32(2 * REGION as usize);
    let (init_u, init_f) = fresh_memory();
    gm.write_u32(buf_u, &init_u);
    gm.write_f32(buf_f, &init_f.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>());
    let k = Script { steps: steps.to_vec(), lanes, buf_u, buf_f, loaded: Mutex::new(Vec::new()) };
    let cfg = LaunchConfig::new(blocks, BLOCK);
    let r = launch_threads(dev, &cfg, &k, &mut gm, SimMode::Full, threads).unwrap();
    let mut loaded = k.loaded.into_inner().unwrap();
    loaded.sort_by_key(|&(block, step, _)| (block, step));
    Outcome {
        stats: r.stats,
        loaded,
        mem_u32: gm.u32(buf_u).to_vec(),
        mem_f32: gm.f32(buf_f).iter().map(|v| v.to_bits()).collect(),
    }
}

/// The two-walk access, written out: blocks run one after another, each
/// on its own SM with a fresh L1.
struct Reference<'d> {
    dev: &'d DeviceSpec,
    out: Outcome,
}

impl Reference<'_> {
    fn run(dev: &DeviceSpec, steps: &[Step], lanes: fn(usize) -> bool, blocks: u32) -> Outcome {
        let (mem_u32, mem_f32) = fresh_memory();
        let stats = KernelStats::for_sms(dev.sm_count as usize);
        let mut me =
            Reference { dev, out: Outcome { stats, loaded: Vec::new(), mem_u32, mem_f32 } };
        for block in 0..blocks {
            let sm = (block % dev.sm_count) as usize;
            let l1_bytes = if dev.has_l1 { dev.l1_bytes as u64 } else { 0 };
            let mut l1 = Cache::new(l1_bytes, 128, 8);
            for (r, &(kind, form, pattern)) in steps.iter().enumerate() {
                let r32 = r as u32;
                let active: Vec<u32> = (0..BLOCK).filter(|&l| lanes(l as usize)).collect();
                let idx: Vec<u32> =
                    active.iter().map(|&l| block * REGION + pattern.index(l, r32)).collect();
                let base = if form == Form::U32 { BASE_U32 } else { BASE_F32 };
                me.charge(sm, &mut l1, base, &active, &idx, kind == Kind::Store);
                let mem = if form == Form::U32 { &mut me.out.mem_u32 } else { &mut me.out.mem_f32 };
                match kind {
                    Kind::Load => {
                        let got = idx.iter().map(|&i| mem[i as usize]).collect();
                        me.out.loaded.push((block, r, got));
                    }
                    Kind::Store => {
                        for (&l, &i) in active.iter().zip(&idx) {
                            mem[i as usize] = value(block, l, r32);
                        }
                    }
                }
            }
        }
        me.out
    }

    /// The first walk: charge one access of the `active` lanes (ascending)
    /// to words `idx` of the buffer at `base`, warp by warp.
    fn charge(
        &mut self,
        sm: usize,
        l1: &mut Cache,
        base: u64,
        active: &[u32],
        idx: &[u32],
        store: bool,
    ) {
        let dev = self.dev;
        let s = &mut self.out.stats;
        let mut warps: Vec<(u32, Vec<u64>, usize)> = Vec::new();
        for (&l, &i) in active.iter().zip(idx) {
            if warps.last().is_none_or(|w| w.0 != l / WARP) {
                warps.push((l / WARP, Vec::new(), 0));
            }
            let warp = warps.last_mut().unwrap();
            warp.1.push(base + 4 * i as u64);
            // Lanes in the warp's first half.
            warp.2 += usize::from(l % WARP < WARP / 2);
        }
        let n = warps.len() as f64;
        s.warp_instructions += n;
        s.issue_cycles_per_sm[sm] += n * op_cycles(dev, Op::MemIssue) as f64;
        s.mem_warp_instructions += n;
        for (_, addrs, half) in warps {
            let one_addr = addrs.iter().all(|&a| a == addrs[0]);
            let camping =
                if !store && addrs.len() >= 16 && one_addr { dev.broadcast_camping } else { 1.0 };
            let transaction = |s: &mut KernelStats, bytes: u32| {
                s.dram_bytes += bytes as f64 * camping;
                *if store { &mut s.st_transactions } else { &mut s.ld_transactions } += 1.0;
            };
            if dev.compute_capability.is_fermi() {
                for line in lines_cc20(&addrs) {
                    if !store {
                        if l1.access(line) {
                            s.l1_hits += 1.0;
                            continue;
                        }
                        s.l1_misses += 1.0;
                    }
                    transaction(s, 128);
                }
            } else {
                for part in [&addrs[..half], &addrs[half..]] {
                    for t in coalesce_cc13_half_warp(part) {
                        transaction(s, t.bytes);
                    }
                }
            }
        }
    }
}

fn assert_matches_two_walks(case: &str, lanes: fn(usize) -> bool) {
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        for k in 1..=SCRIPT.len() {
            let steps = &SCRIPT[..k];
            let want = Reference::run(&dev, steps, lanes, 1);
            let got = run(&dev, steps, lanes, 1, 1);
            assert_eq!(got, want, "{case}, {}, after step {} {:?}", dev.name, k - 1, steps[k - 1]);
        }
        // Two blocks on two host threads: stores go through shadow logs.
        let want = Reference::run(&dev, &SCRIPT, lanes, 2);
        for threads in [1, 2] {
            let got = run(&dev, &SCRIPT, lanes, 2, threads);
            assert_eq!(got, want, "{case}, {}, two blocks on {threads} threads", dev.name);
        }
    }
}

#[test]
fn full_block() {
    assert_matches_two_walks("full block", |_| true);
}

#[test]
fn eight_of_128_lanes() {
    // The task-parallel rows at m = 8: one ant per lane of warp 0.
    assert_matches_two_walks("8 of 128 lanes", |l| l < 8);
}

#[test]
fn upper_half_warps_only() {
    assert_matches_two_walks("upper half-warps", |l| l % 32 >= 16);
}

#[test]
fn empty_warps() {
    // Warps 1 and 3 empty, warp 2 with holes.
    assert_matches_two_walks("empty warps", |l| l < 32 || (64..96).contains(&l) && l % 3 != 0);
}

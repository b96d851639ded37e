//! Property tests for the SIMT simulator.

use aco_simt::block::{atomic_replays, bank_conflict_degree};
use aco_simt::cache::Cache;
use aco_simt::coalesce::{
    cc13_half_warp_totals, cc20_warp_lines, coalesce_cc13_half_warp, lines_cc20,
};
use aco_simt::prelude::*;
use aco_simt::rng::{park_miller, PmRng, PM_MODULUS};
use aco_simt::{occupancy, Mask};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn cc13_transactions_cover_every_access_and_respect_bounds(
        addrs in prop::collection::vec(0u64..100_000, 1..16),
    ) {
        let addrs: Vec<u64> = addrs.into_iter().map(|a| a * 4).collect();
        let ts = coalesce_cc13_half_warp(&addrs);
        // Coverage: every 4-byte access inside some transaction window.
        for &a in &addrs {
            prop_assert!(ts.iter().any(|t| a >= t.base && a + 4 <= t.base + t.bytes as u64));
        }
        // At most one transaction per access; sizes in {32, 64, 128};
        // bases aligned to their size.
        prop_assert!(ts.len() <= addrs.len());
        for t in &ts {
            prop_assert!(matches!(t.bytes, 32 | 64 | 128));
            prop_assert_eq!(t.base % t.bytes as u64, 0);
        }
    }

    #[test]
    fn order_free_cc13_totals_match_the_written_out_rule(
        // A few segments' worth of words, so segments repeat, split into
        // quarters and halves, and come back after other segments.
        words in prop::collection::vec(0u64..320, 0..17),
        base_line in 0u64..1_000,
        ascending in any::<bool>(),
    ) {
        let mut addrs: Vec<u64> = words.iter().map(|w| base_line * 128 + 4 * w).collect();
        if ascending {
            // Segments in runs: the path without a per-segment table.
            addrs.sort_unstable();
        }
        let ts = coalesce_cc13_half_warp(&addrs);
        let bytes = ts.iter().map(|t| t.bytes).sum();
        prop_assert_eq!(cc13_half_warp_totals(&addrs), (ts.len() as u32, bytes));
    }

    #[test]
    fn lane_order_warp_lines_match_the_written_out_rule(
        words in prop::collection::vec(0u64..2_000, 0..33),
        ascending in any::<bool>(),
    ) {
        let mut addrs: Vec<u64> = words.iter().map(|w| 4 * w).collect();
        if ascending {
            // The common case: no sort at all.
            addrs.sort_unstable();
        }
        let mut out = [0; 32];
        prop_assert_eq!(cc20_warp_lines(&addrs, &mut out), &lines_cc20(&addrs)[..]);
    }

    #[test]
    fn fermi_lines_are_distinct_aligned_and_minimal(
        addrs in prop::collection::vec(0u64..100_000, 1..32),
    ) {
        let addrs: Vec<u64> = addrs.into_iter().map(|a| a * 4).collect();
        let lines = lines_cc20(&addrs);
        for w in lines.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and deduped");
        }
        for &l in &lines {
            prop_assert_eq!(l % 128, 0);
        }
        for &a in &addrs {
            prop_assert!(lines.contains(&(a & !127)));
        }
    }

    #[test]
    fn mask_algebra_laws(bits_a in any::<[bool; 64]>(), bits_b in any::<[bool; 64]>()) {
        let a = Mask::from_fn(64, |i| bits_a[i]);
        let b = Mask::from_fn(64, |i| bits_b[i]);
        prop_assert_eq!(a.and(&b).count(), b.and(&a).count());
        prop_assert_eq!(a.or(&b).count() + a.and(&b).count(), a.count() + b.count());
        prop_assert_eq!(a.not().count(), 64 - a.count());
        prop_assert_eq!(a.and_not(&b).count(), a.count() - a.and(&b).count());
        // Warp views partition the lanes.
        let total: usize = (0..a.warp_count()).map(|w| a.warp_bits(w).count_ones() as usize).sum();
        prop_assert_eq!(total, a.count());
    }

    #[test]
    fn park_miller_stays_in_range_and_never_sticks(seed in 0u32..u32::MAX) {
        let mut s = seed;
        for _ in 0..100 {
            s = park_miller(s);
            prop_assert!((1..PM_MODULUS).contains(&s));
        }
        let mut r = PmRng::new(seed);
        let v = r.next_f32();
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn occupancy_is_monotone_in_resources(
        block_pow in 5u32..9, // 32..256 threads
        regs in 1u32..40,
        shared_kb in 0u32..16,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let block = 1 << block_pow;
        let o = occupancy(&dev, block, regs, shared_kb * 1024, 10_000);
        prop_assert!(o.blocks_per_sm >= 1 || shared_kb * 1024 > dev.shared_mem_per_sm);
        prop_assert!(o.occupancy <= 1.0);
        // More registers can never increase residency.
        let o2 = occupancy(&dev, block, regs + 8, shared_kb * 1024, 10_000);
        prop_assert!(o2.blocks_per_sm <= o.blocks_per_sm);
        // More shared memory can never increase residency.
        let o3 = occupancy(&dev, block, regs, (shared_kb + 1) * 1024, 10_000);
        prop_assert!(o3.blocks_per_sm <= o.blocks_per_sm);
    }
}

/// A memory-streaming kernel whose grid shape is a proptest variable:
/// whatever the geometry, counters must balance.
struct Stream {
    buf: DevicePtr<f32>,
    n: u32,
}

impl Kernel for Stream {
    fn name(&self) -> &'static str {
        "stream"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let i = ctx.global_thread_idx();
        let limit = ctx.splat_u32(self.n);
        let ok = ctx.ult(&i, &limit);
        ctx.if_then(gm, &ok, |ctx, gm| {
            let x = ctx.ld_global_f32(gm, self.buf, &i);
            let one = ctx.splat_f32(1.0);
            let y = ctx.fadd(&x, &one);
            ctx.st_global_f32(gm, self.buf, &i, &y);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn launch_counters_balance_for_any_geometry(
        n in 1usize..5000,
        block_pow in 5u32..9,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let mut gm = GlobalMem::new();
        let buf = gm.alloc_f32(n);
        let block = 1u32 << block_pow;
        let grid = (n as u32).div_ceil(block);
        let k = Stream { buf, n: n as u32 };
        let r = launch(&dev, &LaunchConfig::new(grid, block), &k, &mut gm, SimMode::Full)
            .expect("valid launch");
        // Functional result: every element incremented exactly once.
        prop_assert!(gm.f32(buf).iter().all(|&v| v == 1.0));
        // Counter sanity: traffic at least the useful bytes, at most the
        // fully-uncoalesced worst case.
        let useful = (2 * 4 * n) as f64;
        prop_assert!(r.stats.dram_bytes >= useful);
        prop_assert!(r.stats.dram_bytes <= useful * 16.0);
        prop_assert!(r.stats.ld_transactions >= 1.0);
        prop_assert!(r.time.total_ms > 0.0);
    }

    #[test]
    fn sampled_launches_track_full_launches(
        blocks in 8u32..64,
        sample in 2u32..8,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let n = (blocks * 128) as usize;
        let run = |mode: SimMode| {
            let mut gm = GlobalMem::new();
            let buf = gm.alloc_f32(n);
            let k = Stream { buf, n: n as u32 };
            launch(&dev, &LaunchConfig::new(blocks, 128), &k, &mut gm, mode).expect("valid")
        };
        let full = run(SimMode::Full);
        let sampled = run(SimMode::SampleBlocks(sample));
        let rel = (sampled.stats.dram_bytes - full.stats.dram_bytes).abs()
            / full.stats.dram_bytes.max(1.0);
        prop_assert!(rel < 0.15, "dram bytes off by {rel}");
        let relt = (sampled.time.total_ms - full.time.total_ms).abs() / full.time.total_ms;
        prop_assert!(relt < 0.20, "time off by {relt}");
    }
}

/// Block lengths with partial trailing words and warps, checked on every
/// case besides the drawn length.
const MASK_LENGTHS: [usize; 12] = [1, 31, 32, 33, 40, 63, 64, 65, 70, 100, 130, 1024];

/// Per-lane reference bits: random, all on, all off, or a prefix of
/// `cut` lanes (the shape a bounds check produces).
fn reference_bits(len: usize, shape: u32, seed: u64, cut: usize) -> Vec<bool> {
    let mut x = seed | 1;
    (0..len)
        .map(|lane| match shape {
            0 => {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            }
            1 => true,
            2 => false,
            _ => lane < cut,
        })
        .collect()
}

/// The per-lane reference for every word-wise `Mask` query.
fn check_mask_against_reference(bits: &[bool]) -> Result<(), TestCaseError> {
    let len = bits.len();
    let m = Mask::from_fn(len, |l| bits[l]);
    let count = bits.iter().filter(|&&b| b).count();
    for (lane, &b) in bits.iter().enumerate() {
        prop_assert_eq!(m.get(lane), b, "len {} lane {}", len, lane);
    }
    prop_assert_eq!(m.count(), count);
    prop_assert_eq!(m.any(), count > 0);
    prop_assert_eq!(m.is_full(), count == len);
    prop_assert_eq!(m.not().count(), len - count);
    prop_assert_eq!(m.not().is_full(), count == 0);
    let mut lanes = Vec::new();
    m.for_each_lane(|l| lanes.push(l));
    prop_assert_eq!(lanes, (0..len).filter(|&l| bits[l]).collect::<Vec<_>>());
    let warps: Vec<&[bool]> = bits.chunks(32).collect();
    prop_assert_eq!(m.warp_count(), warps.len());
    for (w, lanes) in warps.iter().enumerate() {
        let want = lanes.iter().enumerate().fold(0u32, |acc, (i, &b)| acc | ((b as u32) << i));
        prop_assert_eq!(m.warp_bits(w), want, "len {} warp {}", len, w);
    }
    prop_assert_eq!(m.active_warps(), warps.iter().filter(|w| w.contains(&true)).count());
    prop_assert!(Mask::all(len).is_full());
    prop_assert!(!Mask::none(len).is_full());
    Ok(())
}

/// Runs the comparison ops and a few lane-wise ops under a mask given
/// per lane, recording every disagreement with the per-lane reference.
struct MaskProbe {
    active: Vec<bool>,
    a: Vec<u32>,
    b: Vec<u32>,
    failures: std::sync::Mutex<Vec<String>>,
}

impl MaskProbe {
    fn expect(&self, what: &str, lane: usize, ok: bool) {
        if !ok {
            self.failures.lock().unwrap().push(format!("{what} lane {lane}"));
        }
    }

    /// Warps whose lanes in `within` split over `cond`.
    fn divergent(within: &[bool], cond: &[bool]) -> f64 {
        let split = within.chunks(32).zip(cond.chunks(32)).filter(|(w, c)| {
            let taken = w.iter().zip(c.iter()).filter(|(&w, &c)| w && c).count();
            let active = w.iter().filter(|&&w| w).count();
            taken > 0 && taken < active
        });
        split.count() as f64
    }

    /// Divergent warps the kernel's two branches should count.
    fn expected_divergence(&self) -> f64 {
        let all = vec![true; self.active.len()];
        let lt: Vec<bool> = self.a.iter().zip(&self.b).map(|(a, b)| a < b).collect();
        Self::divergent(&all, &self.active) + Self::divergent(&self.active, &lt)
    }
}

impl Kernel for MaskProbe {
    fn name(&self) -> &'static str {
        "mask_probe"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let len = self.active.len();
        let a = ctx.reg_from_fn_u32(|l| self.a[l]);
        let b = ctx.reg_from_fn_u32(|l| self.b[l]);
        let (af, bf) = (ctx.u2f(&a), ctx.u2f(&b));
        let cond = Mask::from_fn(len, |l| self.active[l]);
        ctx.branch(&cond);
        ctx.with_mask(gm, &cond, |ctx, _| {
            type Pred = fn(u32, u32) -> bool;
            let cases: [(&str, Mask, Pred); 8] = [
                ("ueq", ctx.ueq(&a, &b), |x, y| x == y),
                ("une", ctx.une(&a, &b), |x, y| x != y),
                ("ult", ctx.ult(&a, &b), |x, y| x < y),
                ("ule", ctx.ule(&a, &b), |x, y| x <= y),
                ("flt", ctx.flt(&af, &bf), |x, y| x < y),
                ("fle", ctx.fle(&af, &bf), |x, y| x <= y),
                ("fgt", ctx.fgt(&af, &bf), |x, y| x > y),
                ("fge", ctx.fge(&af, &bf), |x, y| x >= y),
            ];
            for (name, m, pred) in &cases {
                for l in 0..len {
                    self.expect(
                        name,
                        l,
                        m.get(l) == (self.active[l] && pred(self.a[l], self.b[l])),
                    );
                }
            }
            let lt = ctx.ult(&a, &b);
            ctx.branch(&lt);
            // Partial-mask ops: inactive lanes of a fresh register read 0.
            let sum = ctx.iadd(&a, &b);
            let seeded = ctx.reg_from_fn_u32(|l| l as u32 + 1);
            let picked = ctx.select_u32(&lt, &a, &b);
            let lcg_state = &mut ctx.splat_u32(7);
            let draw = ctx.lcg_next_f32(lcg_state);
            for l in 0..len {
                let on = self.active[l];
                let (x, y) = (self.a[l], self.b[l]);
                self.expect("iadd", l, sum.lane(l) == if on { x + y } else { 0 });
                self.expect("reg_from_fn", l, seeded.lane(l) == if on { l as u32 + 1 } else { 0 });
                self.expect("select", l, picked.lane(l) == if on { x.min(y) } else { 0 });
                self.expect("lcg", l, (draw.lane(l) > 0.0) == on);
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn word_wise_masks_match_a_per_lane_reference(
        len in 1usize..1025,
        shape in 0u32..4,
        seed in any::<u64>(),
        cut in 0usize..1025,
    ) {
        for n in std::iter::once(len).chain(MASK_LENGTHS) {
            check_mask_against_reference(&reference_bits(n, shape, seed, cut % (n + 1)))?;
        }
    }

    #[test]
    fn comparison_masks_and_partial_ops_match_a_per_lane_reference(
        len in 1usize..1025,
        shape in 0u32..4,
        seed in any::<u64>(),
        cut in 0usize..1025,
    ) {
        let dev = DeviceSpec::tesla_m2050();
        for n in std::iter::once(len).chain(MASK_LENGTHS) {
            // Small values so equal pairs are common.
            let vals = |s: u64| reference_bits(2 * n, 0, s, 0)
                .chunks(2)
                .map(|p| p[0] as u32 * 2 + p[1] as u32)
                .collect::<Vec<u32>>();
            let probe = MaskProbe {
                active: reference_bits(n, shape, seed, cut % (n + 1)),
                a: vals(seed ^ 0x5555),
                b: vals(seed.rotate_left(17) ^ 0xAAAA),
                failures: std::sync::Mutex::new(Vec::new()),
            };
            let mut gm = GlobalMem::new();
            let r = launch(&dev, &LaunchConfig::new(1, n as u32), &probe, &mut gm, SimMode::Full)
                .expect("valid launch");
            let failures = probe.failures.lock().unwrap();
            prop_assert!(failures.is_empty(), "len {}: {:?}", n, &failures[..failures.len().min(8)]);
            prop_assert_eq!(r.stats.divergent_branches, probe.expected_divergence(), "len {}", n);
        }
    }
}

/// Strides, in words, of the strided shared-memory patterns: unit,
/// two-way, and the bank-count multiples and near-multiples.
const STRIDES: [u32; 5] = [1, 2, 16, 32, 33];

/// Word index of every lane in a 4096-word arena (wrapping around it): a
/// broadcast (pattern 0), repeats of three words (1), one of [`STRIDES`]
/// (2..=6) or random words (7).
fn lane_words(lanes: usize, pattern: u32, base: u32, seed: u64) -> Vec<u32> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..lanes as u32)
        .map(|lane| match pattern {
            0 => base,
            1 => base + 16 * (next() % 3) as u32,
            2..=6 => base + STRIDES[pattern as usize - 2] * lane,
            _ => (next() % 2048) as u32,
        } % 4096)
        .collect()
}

/// Active lanes: the shapes of [`reference_bits`], or exactly two lanes
/// (shape 4), so strided pairs land exactly one bank count apart.
fn active_lanes(lanes: usize, shape: u32, seed: u64, cut: usize) -> Vec<bool> {
    if shape == 4 {
        let (a, b) = (seed as usize % lanes, cut % lanes);
        (0..lanes).map(|l| l == a || l == b).collect()
    } else {
        reference_bits(lanes, shape, seed, cut % (lanes + 1))
    }
}

/// The first occurrence of each value, in order: O(g^2).
fn naive_distinct<T: PartialEq + Copy>(v: &[T]) -> Vec<T> {
    v.iter().enumerate().filter(|&(i, x)| !v[..i].contains(x)).map(|(_, &x)| x).collect()
}

/// Largest number of distinct words sharing a bank.
fn naive_degree(words: &[u32], banks: u32) -> u32 {
    let distinct = naive_distinct(words);
    let per_bank = |w: u32| distinct.iter().filter(|&&v| v % banks == w % banks).count() as u32;
    distinct.iter().map(|&w| per_bank(w)).max().unwrap_or(0)
}

/// Distinct addresses and the largest multiplicity of one.
fn naive_replays(addrs: &[u64]) -> (u32, u32) {
    let most = addrs.iter().map(|a| addrs.iter().filter(|&b| b == a).count()).max();
    (naive_distinct(addrs).len() as u32, most.unwrap_or(0) as u32)
}

/// One shared load and one atomic add per lane at the given word
/// indices, under the given mask.
struct BankProbe {
    active: Vec<bool>,
    words: Vec<u32>,
    tau: DevicePtr<f32>,
}

impl Kernel for BankProbe {
    fn name(&self) -> &'static str {
        "bank_probe"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let idx = ctx.reg_from_fn_u32(|l| self.words[l]);
        let one = ctx.splat_f32(1.0);
        let sh = ctx.shared_alloc_u32(4096);
        let cond = Mask::from_fn(self.active.len(), |l| self.active[l]);
        ctx.with_mask(gm, &cond, |ctx, gm| {
            let _ = ctx.sh_ld_u32(sh, &idx);
            ctx.atomic_add_f32(gm, self.tau, &idx, &one);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn bank_degrees_and_atomic_replays_match_a_naive_count(
        shape in 0u32..5,
        base in 0u32..2048,
        seed in any::<u64>(),
        cut in 0usize..64,
    ) {
        // Half-warp and warp groups on 16- and 32-bank devices.
        for (group, banks) in [(16, 16), (16, 32), (32, 16), (32, 32)] {
            let active = active_lanes(group, shape, seed, cut);
            for pattern in 0..8 {
                let words = lane_words(group, pattern, base, seed.rotate_left(pattern));
                let mut on: Vec<u32> = (0..group).filter(|&l| active[l]).map(|l| words[l]).collect();
                let want = naive_degree(&on, banks);
                prop_assert_eq!(
                    bank_conflict_degree(&mut on, banks), want,
                    "banks {} group {} pattern {} words {:?}", banks, group, pattern, &on
                );
                let mut addrs: Vec<u64> = on.iter().map(|&w| 4096 + 4 * w as u64).collect();
                let want = naive_replays(&addrs);
                prop_assert_eq!(atomic_replays(&mut addrs), want, "pattern {}", pattern);
            }
        }
    }

    #[test]
    fn shared_and_atomic_counters_sum_the_naive_per_group_counts(
        len in 1usize..161,
        shape in 0u32..5,
        base in 0u32..2048,
        seed in any::<u64>(),
        cut in 0usize..161,
    ) {
        // C1060: 16 banks per half-warp, CAS-emulated atomics (factor 4);
        // M2050: 32 banks per warp, native atomics.
        for (dev, group, emu) in
            [(DeviceSpec::tesla_c1060(), 16, 4.0), (DeviceSpec::tesla_m2050(), 32, 1.0)]
        {
            let active = active_lanes(len, shape, seed, cut);
            for pattern in 0..8 {
                let words = lane_words(len, pattern, base, seed.rotate_left(pattern));
                let on = |lanes: std::ops::Range<usize>| -> Vec<u32> {
                    lanes.filter(|&l| l < len && active[l]).map(|l| words[l]).collect()
                };
                let groups = len.div_ceil(group);
                let extra: u32 = (0..groups)
                    .map(|g| naive_degree(&on(g * group..(g + 1) * group), dev.shared_banks).saturating_sub(1))
                    .sum();
                let (mut conflicts, mut distinct) = (0, 0);
                for w in 0..len.div_ceil(32) {
                    let lanes = on(w * 32..(w + 1) * 32);
                    let (d, _) = naive_replays(&lanes.iter().map(|&x| x as u64).collect::<Vec<_>>());
                    conflicts += lanes.len() as u32 - d;
                    distinct += d;
                }
                let mut gm = GlobalMem::new();
                let tau = gm.alloc_f32(4096);
                let probe = BankProbe { active: active.clone(), words, tau };
                let cfg = LaunchConfig::new(1, len as u32).shared(4 * 4096);
                let r = launch(&dev, &cfg, &probe, &mut gm, SimMode::Full).expect("valid launch");
                let count = active.iter().filter(|&&a| a).count() as f64;
                let ctx = format!("{} len {} pattern {}", dev.name, len, pattern);
                prop_assert_eq!(r.stats.bank_conflict_extra, extra as f64, "{}", &ctx);
                prop_assert_eq!(r.stats.shared_accesses, count, "{}", &ctx);
                prop_assert_eq!(r.stats.atomic_ops, count, "{}", &ctx);
                prop_assert_eq!(r.stats.atomic_conflicts, conflicts as f64, "{}", &ctx);
                prop_assert_eq!(r.stats.st_transactions, distinct as f64 * emu, "{}", &ctx);
            }
        }
    }
}

/// The division-based set-associative LRU cache the shift-and-multiply
/// indexing of [`Cache`] must reproduce exactly.
struct ReferenceCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    /// Per set: resident lines, least recently used first.
    lru: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    fn new(capacity: u64, line_bytes: u64, ways: usize) -> Self {
        let sets = capacity / line_bytes / ways as u64;
        ReferenceCache {
            line_bytes,
            sets,
            ways,
            lru: vec![Vec::new(); sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = &mut self.lru[(line % self.sets) as usize];
        let hit = set.iter().position(|&l| l == line).map(|i| set.remove(i)).is_some();
        if !hit && set.len() == self.ways {
            set.remove(0);
        }
        set.push(line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn cache_matches_a_division_based_reference(seed in any::<u64>(), span_pow in 10u32..24) {
        // Texture cache, a 32-set L1, and the 48-set 48 KB L1.
        for (capacity, line, ways) in [(8 << 10, 32, 8), (16 << 10, 128, 8), (48 << 10, 128, 8)] {
            let mut cache = Cache::new(capacity, line, ways);
            let mut reference = ReferenceCache::new(capacity, line, ways);
            let mut x = seed | 1;
            let mut addr = 0u64;
            for i in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mostly short strides (hits), some jumps over a working
                // set of 2^span_pow bytes, a few anywhere in 64-bit space.
                addr = match x % 16 {
                    0..=9 => addr.wrapping_add(x >> 60),
                    10..=14 => (x >> 8) % (1 << span_pow),
                    _ => x,
                };
                prop_assert_eq!(cache.access(addr), reference.access(addr), "access {} addr {}", i, addr);
            }
            prop_assert_eq!(cache.counters(), (reference.hits, reference.misses));
        }
    }
}

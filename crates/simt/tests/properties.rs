//! Property tests for the SIMT simulator.

use aco_simt::coalesce::{coalesce_cc13_half_warp, lines_cc20};
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

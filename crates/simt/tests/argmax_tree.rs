//! `BlockCtx::sh_argmax_tree` against the written-out level loop it
//! replaced in the data-parallel tour kernel: every counter bit, every
//! shared word and the winner must agree on both modeled devices, and on
//! a device with fewer banks than a conflict group.

use aco_simt::prelude::*;

/// One block per 2-word-per-lane shared tree: loads lane values from
/// `input`, reduces them, and writes every shared word back to `out_*`.
struct Tree {
    written_out: bool,
    input: DevicePtr<f32>,
    out_val: DevicePtr<f32>,
    out_idx: DevicePtr<u32>,
}

impl Kernel for Tree {
    fn name(&self) -> &'static str {
        "argmax_tree"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let t = ctx.block_dim;
        let sh_val = ctx.shared_alloc_f32(t as usize);
        let sh_idx = ctx.shared_alloc_u32(t as usize);
        let lane = ctx.thread_idx();
        let g = ctx.global_thread_idx();
        let val = ctx.ld_global_f32(gm, self.input, &g);
        ctx.sh_st_f32(sh_val, &lane, &val);
        ctx.sh_st_u32(sh_idx, &lane, &g);
        ctx.sync_threads();
        if self.written_out {
            let mut s = t / 2;
            while s >= 1 {
                let s_reg = ctx.splat_u32(s);
                let is_lo = ctx.ult(&lane, &s_reg);
                ctx.if_then(gm, &is_lo, |ctx, _| {
                    let other = ctx.iadd(&lane, &s_reg);
                    let vo = ctx.sh_ld_f32(sh_val, &other);
                    let io = ctx.sh_ld_u32(sh_idx, &other);
                    let vm = ctx.sh_ld_f32(sh_val, &lane);
                    let im = ctx.sh_ld_u32(sh_idx, &lane);
                    let better = ctx.fgt(&vo, &vm);
                    let nv = ctx.select_f32(&better, &vo, &vm);
                    let ni = ctx.select_u32(&better, &io, &im);
                    ctx.sh_st_f32(sh_val, &lane, &nv);
                    ctx.sh_st_u32(sh_idx, &lane, &ni);
                });
                ctx.sync_threads();
                s /= 2;
            }
        } else {
            ctx.sh_argmax_tree(sh_val, sh_idx);
        }
        let v = ctx.sh_ld_f32(sh_val, &lane);
        let i = ctx.sh_ld_u32(sh_idx, &lane);
        ctx.st_global_f32(gm, self.out_val, &g, &v);
        ctx.st_global_u32(gm, self.out_idx, &g, &i);
    }
}

const BLOCKS: u32 = 3;

/// Lane values with ties, `-1.0` sentinels (the kernel's visited cities)
/// and one NaN per block.
fn values(t: u32) -> Vec<f32> {
    (0..BLOCKS * t)
        .map(|g| match g % t {
            l if l == t / 3 + g / t => f32::NAN,
            l if l % 3 == 1 => -1.0,
            l => ((l * 37 + g / t * 5) % 11) as f32 * 0.25,
        })
        .collect()
}

/// Every counter, modeled ms and output word of one launch, as raw bits.
fn run(dev: &DeviceSpec, t: u32, written_out: bool) -> (Vec<u64>, Vec<u32>, Vec<u32>) {
    let mut gm = GlobalMem::new();
    let input = gm.alloc_f32((BLOCKS * t) as usize);
    gm.write_f32(input, &values(t));
    let out_val = gm.alloc_f32((BLOCKS * t) as usize);
    let out_idx = gm.alloc_u32((BLOCKS * t) as usize);
    let k = Tree { written_out, input, out_val, out_idx };
    let cfg = LaunchConfig::new(BLOCKS, t).shared(8 * t);
    let r = launch(dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
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
    } = &r.stats;
    let mut bits: Vec<u64> = issue_cycles_per_sm.iter().map(|c| c.to_bits()).collect();
    let t = &r.time;
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
        &t.compute_ms,
        &t.memory_ms,
        &t.latency_ms,
        &t.overhead_ms,
        &t.total_ms,
    ] {
        bits.push(v.to_bits());
    }
    let vals = gm.f32(out_val).iter().map(|v| v.to_bits()).collect();
    (bits, vals, gm.u32(out_idx).to_vec())
}

/// Both modeled devices, and an M2050 with 8 banks: there a level's 32
/// contiguous words per warp fall 4 to a bank.
fn devices() -> Vec<DeviceSpec> {
    let few_banks = DeviceSpec { shared_banks: 8, ..DeviceSpec::tesla_m2050() };
    vec![DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050(), few_banks]
}

#[test]
fn collective_matches_the_written_out_tree() {
    for dev in devices() {
        for t in [16, 32, 64, 128, 256, 512] {
            let case = format!("{} ({} banks), block {t}", dev.name, dev.shared_banks);
            let (oracle_stats, oracle_vals, oracle_idx) = run(&dev, t, true);
            let (stats, vals, idx) = run(&dev, t, false);
            assert_eq!(stats, oracle_stats, "{case}: counters");
            assert_eq!(vals, oracle_vals, "{case}: value words");
            assert_eq!(idx, oracle_idx, "{case}: index words");
            for b in 0..BLOCKS as usize {
                let winner = idx[b * t as usize];
                assert_eq!(winner, oracle_idx[b * t as usize], "{case}: block {b} winner");
                assert!(
                    (b * t as usize..(b + 1) * t as usize).contains(&(winner as usize)),
                    "{case}: block {b} winner {winner} is one of its lanes"
                );
            }
        }
    }
}

/// Calls the collective from inside a branch or on an odd block.
struct Misuse {
    partial: bool,
}

impl Kernel for Misuse {
    fn name(&self) -> &'static str {
        "argmax_tree_misuse"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let t = ctx.block_dim as usize;
        let sh_val = ctx.shared_alloc_f32(t);
        let sh_idx = ctx.shared_alloc_u32(t);
        if self.partial {
            let lane = ctx.thread_idx();
            let half = ctx.splat_u32(ctx.block_dim / 2);
            let lo = ctx.ult(&lane, &half);
            ctx.with_mask(gm, &lo, |ctx, _| ctx.sh_argmax_tree(sh_val, sh_idx));
        } else {
            ctx.sh_argmax_tree(sh_val, sh_idx);
        }
    }
}

fn misuse(block: u32, partial: bool) {
    let mut gm = GlobalMem::new();
    let cfg = LaunchConfig::new(1, block).shared(8 * block);
    let _ = launch(&DeviceSpec::tesla_m2050(), &cfg, &Misuse { partial }, &mut gm, SimMode::Full);
}

#[test]
#[should_panic(expected = "every lane of the block active")]
fn collective_refuses_a_partial_mask() {
    misuse(64, true);
}

#[test]
#[should_panic(expected = "power-of-two block")]
fn collective_refuses_a_non_power_of_two_block() {
    misuse(48, false);
}

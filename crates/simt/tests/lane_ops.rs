//! Every register op's charge, op by op, against the tally the counting
//! `Alu` derives for it.
//!
//! Pass bodies are charged the tally counted from their `Alu` operations,
//! while kernels outside passes charge each `BlockCtx` op as it runs. Both
//! read an op's class from `LaneOp`; this suite pins that each op of the
//! one matches its twin in the other. Each case launches one 32-lane block
//! twice on both modeled devices — the `BlockCtx` op, then a lane pass
//! charged `Tally::count` of the `Alu` op — after the same input splats,
//! and compares every `KernelStats` field.

use aco_simt::alu::Count;
use aco_simt::prelude::*;

/// One op: its `BlockCtx` form on inputs `(x, y, u, v)` (two f32 and two
/// u32 registers) and its `Alu` form.
struct Case {
    name: &'static str,
    op_by_op: fn(&mut BlockCtx, &Inputs),
    counted: fn(Count),
}

struct Inputs {
    x: Reg<f32>,
    y: Reg<f32>,
    u: Reg<u32>,
    v: Reg<u32>,
}

/// A one-block launch of `body` after the input splats.
struct OneWarp<F>(F);

impl<F: Fn(&mut BlockCtx, &Inputs) + Sync> Kernel for OneWarp<F> {
    fn name(&self) -> &'static str {
        "lane_op"
    }

    fn run_block(&self, ctx: &mut BlockCtx, _: &mut GlobalMem) {
        let inputs = Inputs {
            x: ctx.splat_f32(1.5),
            y: ctx.splat_f32(0.5),
            u: ctx.splat_u32(7),
            v: ctx.splat_u32(3),
        };
        (self.0)(ctx, &inputs);
    }
}

fn stats(dev: &DeviceSpec, body: impl Fn(&mut BlockCtx, &Inputs) + Sync) -> KernelStats {
    let mut gm = GlobalMem::new();
    let cfg = LaunchConfig::new(1, 32);
    launch(dev, &cfg, &OneWarp(body), &mut gm, SimMode::Full).unwrap().stats
}

macro_rules! cases {
    ($($name:ident: |$ctx:ident, $i:ident| $op:expr, |$a:ident| $alu:expr;)*) => {
        [$(Case {
            name: stringify!($name),
            op_by_op: |$ctx, $i| {
                let _ = $op;
            },
            counted: |$a| {
                let _ = $alu;
            },
        }),*]
    };
}

#[test]
fn every_register_op_charges_its_counted_tally() {
    let cases = cases! {
        fadd: |c, i| c.fadd(&i.x, &i.y), |a| a.fadd(1.5, 0.5);
        fsub: |c, i| c.fsub(&i.x, &i.y), |a| a.fsub(1.5, 0.5);
        fmul: |c, i| c.fmul(&i.x, &i.y), |a| a.fmul(1.5, 0.5);
        ffma: |c, i| c.fma(&i.x, &i.y, &i.x), |a| a.ffma(1.5, 0.5, 1.5);
        fdiv: |c, i| c.fdiv(&i.x, &i.y), |a| a.fdiv(1.5, 0.5);
        fpow: |c, i| c.fpow(&i.x, &i.y), |a| a.fpow(1.5, 0.5);
        iadd: |c, i| c.iadd(&i.u, &i.v), |a| a.iadd(7, 3);
        isub: |c, i| c.isub(&i.u, &i.v), |a| a.isub(7, 3);
        imul: |c, i| c.imul(&i.u, &i.v), |a| a.imul(7, 3);
        iand: |c, i| c.iand(&i.u, &i.v), |a| a.iand(7, 3);
        ior: |c, i| c.ior(&i.u, &i.v), |a| a.ior(7, 3);
        ishl: |c, i| c.ishl(&i.u, &i.v), |a| a.ishl(7, 3);
        ishr: |c, i| c.ishr(&i.u, &i.v), |a| a.ishr(7, 3);
        imin: |c, i| c.imin(&i.u, &i.v), |a| a.imin(7, 3);
        u2f: |c, i| c.u2f(&i.u), |a| a.u2f(7);
        flt: |c, i| c.flt(&i.x, &i.y), |a| a.flt(1.5, 0.5);
        fle: |c, i| c.fle(&i.x, &i.y), |a| a.fle(1.5, 0.5);
        fgt: |c, i| c.fgt(&i.x, &i.y), |a| a.fgt(1.5, 0.5);
        fge: |c, i| c.fge(&i.x, &i.y), |a| a.fge(1.5, 0.5);
        ult: |c, i| c.ult(&i.u, &i.v), |a| a.ult(7, 3);
        ule: |c, i| c.ule(&i.u, &i.v), |a| a.ule(7, 3);
        ueq: |c, i| c.ueq(&i.u, &i.v), |a| a.ueq(7, 3);
        une: |c, i| c.une(&i.u, &i.v), |a| a.une(7, 3);
        select_f32: |c, i| {
            let m = Mask::all(32);
            c.select_f32(&m, &i.x, &i.y)
        }, |a| a.select(true, 1.5, 0.5);
        select_u32: |c, i| {
            let m = Mask::all(32);
            c.select_u32(&m, &i.u, &i.v)
        }, |a| a.select(true, 7, 3);
        assign: |c, i| c.assign_u32(&mut i.u.clone(), &i.v), |a| a.mov(3);
        splat: |c, _i| c.splat_u32(9), |a| a.mov(9);
        thread_idx: |c, _i| c.thread_idx(), |a| a.mov(0);
        global_thread_idx: |c, _i| c.global_thread_idx(), |a| a.iadd(0, 0);
        reg_from_fn: |c, _i| c.reg_from_fn_u32(|l| l as u32), |a| a.mov(0);
        draw: |c, i| c.lcg_next_f32(&mut i.u.clone()), |a| a.draw(&mut 7);
    };
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        for case in &cases {
            let op_by_op = stats(&dev, case.op_by_op);
            let counted = stats(&dev, |ctx, _| {
                ctx.lane_pass(Tally::count(case.counted));
            });
            assert_eq!(op_by_op, counted, "{} on the {}", case.name, dev.name);
        }
    }
}

/// One 32-lane block's CURAND-style draw, or its former hand-written
/// charge: 27 issue-priced instructions and no SFU, beside the same three
/// state loads and three stores.
struct Curand {
    derived: bool,
    states: DevicePtr<u32>,
}

impl Kernel for Curand {
    fn name(&self) -> &'static str {
        "curand"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        if self.derived {
            ctx.curand_next_f32(gm, self.states);
            return;
        }
        let word = |k: u32| move |l: usize| l as u32 * 12 + k;
        let mut pass = ctx.lane_pass(Tally::NONE.op(Op::IAlu, 27));
        for k in 0..3 {
            pass.ld_global_u32(gm, self.states, word(k), |_, _| {});
        }
        for k in 0..3 {
            pass.st_global_u32(gm, self.states, word(k), |_| 0);
        }
    }
}

#[test]
fn curand_draw_issues_27_slots_and_no_sfu() {
    for dev in [DeviceSpec::tesla_c1060(), DeviceSpec::tesla_m2050()] {
        let [derived, hand_written] = [true, false].map(|derived| {
            let mut gm = GlobalMem::new();
            let states = gm.alloc_u32(12 * 32);
            let k = Curand { derived, states };
            launch(&dev, &LaunchConfig::new(1, 32), &k, &mut gm, SimMode::Full).unwrap().stats
        });
        assert!(dev.sfu_cycles_per_warp != dev.issue_cycles_per_warp, "an SFU slot would show");
        assert_eq!(derived.rng_calls, 32.0, "one draw per lane on the {}", dev.name);
        assert_eq!(KernelStats { rng_calls: 0.0, ..derived }, hand_written, "on the {}", dev.name);
    }
}

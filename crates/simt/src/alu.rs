//! Pass bodies written once: the per-lane arithmetic a body runs, and the
//! [`Tally`] derived from it.
//!
//! A lane pass ([`BlockCtx::lane_pass`](crate::BlockCtx::lane_pass))
//! charges its data-independent instructions as one [`Tally`] and runs
//! the lanes' arithmetic as a host loop. The body does that arithmetic
//! through an [`Alu`], and its memory instructions through a [`Pass`], so
//! one body has two readings:
//!
//! - [`Run`], a zero-sized [`Alu`] whose every method inlines to the
//!   plain host operation, with [`LanePass`](crate::LanePass): the pass
//!   itself;
//! - [`Count`], which counts each operation's class, with [`Probe`],
//!   which calls the body's per-lane closures once, for the block's
//!   spare lane (every register holds one slot past the block, which no
//!   mask covers), without touching memory: the body's tally.
//!
//! [`lane_pass!`](crate::lane_pass), [`loop_pass!`](crate::loop_pass) and
//! [`sh_tree!`](crate::sh_tree) expand a body into both readings, so the
//! tally charged is the one counted from the code that runs. A body must
//! be branch-free: each per-lane `if` is written as the [`Alu::select`]s
//! the CUDA code executes, and every compare is counted (combine them
//! with `&` and `|`, which predicate registers do for free, not `&&`).
//! [`Pass::repeat`] runs a loop of a fixed trip count; the probe counts
//! one trip and multiplies. A pass site called every step keeps its
//! derived tally in a [`Memo`] for the rest of its block. Costs the model
//! charges that run no host operation, such as the baseline's
//! double-precision `pow` surcharge, are an explicit [`Alu::charge`].

use std::cell::Cell;

use crate::block::{Op, Reg, Tally, OPS};
use crate::global::{DevicePtr, GlobalMem};
use crate::pool::PoolItem;
use crate::rng::pm_draw;
use crate::shared::ShPtr;

/// Every register op of the lane model and the class it is charged as:
/// the one table [`BlockCtx`](crate::BlockCtx)'s op-by-op methods and the
/// counting [`Alu`] both read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOp {
    /// Integer add, subtract, multiply, logic, shift or minimum.
    Int,
    /// Integer division or modulo.
    DivMod,
    /// f32 add or subtract.
    FAdd,
    /// f32 multiply or FMA.
    FMul,
    /// f32 division: an SFU reciprocal and a multiply.
    FDiv,
    /// `__powf`: two SFU passes (log and exp) and a multiply.
    FPow,
    /// Any compare, f32 or u32.
    Cmp,
    /// Select, splat, predicated move or conversion.
    Mov,
}

impl LaneOp {
    /// The class the op issues as.
    pub const fn class(self) -> Op {
        match self {
            LaneOp::Int => Op::IAlu,
            LaneOp::DivMod => Op::IDivMod,
            LaneOp::FAdd | LaneOp::Cmp => Op::FAlu,
            LaneOp::FMul | LaneOp::FDiv | LaneOp::FPow => Op::FMul,
            LaneOp::Mov => Op::Mov,
        }
    }

    /// SFU instructions the op issues beside its class's one.
    pub const fn sfu(self) -> u64 {
        match self {
            LaneOp::FDiv => 1,
            LaneOp::FPow => 2,
            _ => 0,
        }
    }
}

/// `fn name(self, x: T, y: T) -> U`: one `op`, then `f(x, y)`.
macro_rules! binary_ops {
    ($($name:ident($t:ty) -> $u:ty = $op:ident, $f:expr;)*) => {$(
        #[inline(always)]
        fn $name(self, x: $t, y: $t) -> $u {
            self.lane_op(LaneOp::$op);
            ($f)(x, y)
        }
    )*};
}

/// One lane's arithmetic in a pass body: each method is the operation
/// on one lane's values, charged as [`LaneOp`] says (the integer ops
/// wrap, as the registers do). The two readings are [`Run`] and
/// [`Count`] (see the module docs).
pub trait Alu: Copy {
    /// Add `t` to the body's tally: nothing for [`Run`].
    fn tally(self, t: Tally);

    /// One `op`.
    #[inline(always)]
    fn lane_op(self, op: LaneOp) {
        self.tally(Tally::NONE.op(op.class(), 1).op(Op::Sfu, op.sfu()));
    }

    /// `k` instructions of class `op` with no host operation behind them.
    #[inline(always)]
    fn charge(self, op: Op, k: u64) {
        self.tally(Tally::NONE.op(op, k));
    }

    /// A splat, predicated move or register copy of `v`.
    #[inline(always)]
    fn mov<T>(self, v: T) -> T {
        self.lane_op(LaneOp::Mov);
        v
    }

    /// `c ? x : y`.
    #[inline(always)]
    fn select<T>(self, c: bool, x: T, y: T) -> T {
        self.lane_op(LaneOp::Mov);
        if c {
            x
        } else {
            y
        }
    }

    /// u32 → f32 conversion.
    #[inline(always)]
    fn u2f(self, x: u32) -> f32 {
        self.lane_op(LaneOp::Mov);
        x as f32
    }

    /// `x * y + z` as one fused multiply-add, rounded once, bit for bit
    /// as [`BlockCtx::fma`](crate::BlockCtx::fma).
    #[inline(always)]
    fn ffma(self, x: f32, y: f32, z: f32) -> f32 {
        self.lane_op(LaneOp::FMul);
        x.mul_add(y, z)
    }

    /// One Park–Miller draw from the lane's `state`, charged as
    /// [`Tally::draws`] charges one.
    #[inline(always)]
    fn draw(self, state: &mut u32) -> f32 {
        self.tally(Tally::NONE.draws(1));
        pm_draw(state)
    }

    binary_ops! {
        iadd(u32) -> u32 = Int, u32::wrapping_add;
        isub(u32) -> u32 = Int, u32::wrapping_sub;
        imul(u32) -> u32 = Int, u32::wrapping_mul;
        iand(u32) -> u32 = Int, |x, y| x & y;
        ior(u32) -> u32 = Int, |x, y| x | y;
        ixor(u32) -> u32 = Int, |x, y| x ^ y;
        ishl(u32) -> u32 = Int, u32::wrapping_shl;
        ishr(u32) -> u32 = Int, u32::wrapping_shr;
        imin(u32) -> u32 = Int, u32::min;
        fadd(f32) -> f32 = FAdd, |x, y| x + y;
        fsub(f32) -> f32 = FAdd, |x, y| x - y;
        fmul(f32) -> f32 = FMul, |x, y| x * y;
        fdiv(f32) -> f32 = FDiv, |x, y| x / y;
        fpow(f32) -> f32 = FPow, f32::powf;
        flt(f32) -> bool = Cmp, |x, y| x < y;
        fle(f32) -> bool = Cmp, |x, y| x <= y;
        fgt(f32) -> bool = Cmp, |x, y| x > y;
        fge(f32) -> bool = Cmp, |x, y| x >= y;
        ult(u32) -> bool = Cmp, |x, y| x < y;
        ule(u32) -> bool = Cmp, |x, y| x <= y;
        ueq(u32) -> bool = Cmp, |x, y| x == y;
        une(u32) -> bool = Cmp, |x, y| x != y;
    }
}

/// The arithmetic a pass runs: every method is the plain host operation.
#[derive(Debug, Clone, Copy)]
pub struct Run;

impl Alu for Run {
    #[inline(always)]
    fn tally(self, _: Tally) {}
}

/// The arithmetic a tally is derived with: every method adds its charge
/// to the count it borrows.
#[derive(Debug, Clone, Copy)]
pub struct Count<'c>(&'c Counter);

/// A tally being counted: instructions per [`Op`] class, and draws.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    ops: [Cell<u64>; OPS.len()],
    draws: Cell<u64>,
}

impl Counter {
    fn add(&self, op: Op, k: u64) {
        let n = &self.ops[op as usize];
        n.set(n.get() + k);
    }

    fn tally(&self) -> Tally {
        Tally { ops: self.ops.each_ref().map(Cell::get), draws: self.draws.get() }
    }

    /// Set the count to `t`.
    fn set(&self, t: Tally) {
        self.ops.iter().zip(t.ops).for_each(|(n, k)| n.set(k));
        self.draws.set(t.draws);
    }
}

impl Alu for Count<'_> {
    fn tally(self, t: Tally) {
        OPS.iter().for_each(|&op| self.0.add(op, t.ops[op as usize]));
        self.0.draws.set(self.0.draws.get() + t.draws);
    }

    fn lane_op(self, op: LaneOp) {
        self.0.add(op.class(), 1);
        self.0.add(Op::Sfu, op.sfu());
    }
}

impl Tally {
    /// The tally of `body`'s arithmetic, run once through [`Count`].
    pub fn count(body: impl FnOnce(Count)) -> Tally {
        let counter = Counter::default();
        body(Count(&counter));
        counter.tally()
    }
}

/// The memory instructions of a pass body, and the arithmetic it runs
/// them with: [`LanePass`](crate::LanePass) runs them, [`Probe`] derives
/// the body's tally. Each method takes its per-lane indices and values as
/// closures, called once per active lane in lane order (once, for the
/// spare lane, on a probe).
pub trait Pass {
    /// The body's arithmetic.
    type Alu: Alu;

    /// The arithmetic to run the body's lanes with.
    fn alu(&self) -> Self::Alu;

    /// An uncharged register of `f(lane)` on the active lanes, 0
    /// elsewhere.
    fn reg<T: PoolItem>(&self, f: impl FnMut(usize) -> T) -> Reg<T>;

    /// `body(self, i)` for `i` in `0..trips`: a loop whose every trip
    /// issues the same instructions.
    fn repeat(&mut self, trips: u32, body: impl FnMut(&mut Self, u32));

    /// `f(lane)` for each of `lanes`, active lanes the caller knows to be
    /// the only ones `f` changes: a per-lane step whose result on every
    /// other lane is its input. On a probe, `f` of the spare lane.
    fn lanes(&mut self, lanes: impl IntoIterator<Item = usize>, f: impl FnMut(usize));

    /// Load `each(lane, ptr[idx(lane)])`: through the texture cache when
    /// `texture` (read-only data), else as a global load. `idx(lane)`
    /// runs just before `each` of the same lane.
    fn ld_f32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<f32>,
        texture: bool,
        idx: impl FnMut(usize) -> u32,
        each: impl FnMut(usize, f32),
    );

    /// Global load, u32.
    fn ld_global_u32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<u32>,
        idx: impl FnMut(usize) -> u32,
        each: impl FnMut(usize, u32),
    );

    /// Global store: `ptr[idx(lane)] = val(lane)`.
    fn st_global_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: impl FnMut(usize) -> u32,
        val: impl FnMut(usize) -> f32,
    );

    /// Global store, u32.
    fn st_global_u32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<u32>,
        idx: impl FnMut(usize) -> u32,
        val: impl FnMut(usize) -> u32,
    );

    /// Shared load of raw 32-bit words: `each(lane, ptr[idx(lane)])`.
    fn sh_ld<T>(
        &mut self,
        ptr: ShPtr<T>,
        idx: impl FnMut(usize) -> u32,
        each: impl FnMut(usize, u32),
    );

    /// Shared store of raw 32-bit words (`f32::to_bits` for floats):
    /// `ptr[idx(lane)] = bits(lane)`.
    fn sh_st<T>(
        &mut self,
        ptr: ShPtr<T>,
        idx: impl FnMut(usize) -> u32,
        bits: impl FnMut(usize) -> u32,
    );

    /// `sh_st(ptr, |lane| lane, bits)`.
    fn sh_st_lanes<T>(&mut self, ptr: ShPtr<T>, bits: impl FnMut(usize) -> u32);
}

/// A derived tally kept for a pass site (see [`lane_pass!`](crate::lane_pass)).
pub type Memo<T> = Cell<Option<T>>;

/// The pass a body's tally is derived on: its registers and closures see
/// only the block's spare lane, its loops run one trip, and it touches no
/// memory (see the module docs).
pub struct Probe<'c> {
    count: &'c Counter,
    lane: usize,
}

impl Probe<'_> {
    /// The tally of `body` on a block of `lanes` lanes.
    pub(crate) fn tally(lanes: usize, body: impl FnOnce(&mut Probe)) -> Tally {
        let count = Counter::default();
        body(&mut Probe { count: &count, lane: lanes });
        count.tally()
    }
}

impl<'c> Pass for Probe<'c> {
    type Alu = Count<'c>;

    fn alu(&self) -> Count<'c> {
        Count(self.count)
    }

    fn reg<T: PoolItem>(&self, mut f: impl FnMut(usize) -> T) -> Reg<T> {
        let mut r = Reg(T::take(self.lane + 1));
        r.set_lane(self.lane, f(self.lane));
        r
    }

    fn repeat(&mut self, trips: u32, mut body: impl FnMut(&mut Self, u32)) {
        let outer = self.count.tally();
        self.count.set(Tally::NONE);
        if trips > 0 {
            body(self, 0);
        }
        self.count.set(outer.plus(self.count.tally().times(trips as u64)));
    }

    fn lanes(&mut self, _: impl IntoIterator<Item = usize>, mut f: impl FnMut(usize)) {
        f(self.lane);
    }

    fn ld_f32(
        &mut self,
        _: &GlobalMem,
        _: DevicePtr<f32>,
        _: bool,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, f32),
    ) {
        idx(self.lane);
        each(self.lane, 0.0);
    }

    fn ld_global_u32(
        &mut self,
        _: &GlobalMem,
        _: DevicePtr<u32>,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, u32),
    ) {
        idx(self.lane);
        each(self.lane, 0);
    }

    fn st_global_f32(
        &mut self,
        _: &mut GlobalMem,
        _: DevicePtr<f32>,
        mut idx: impl FnMut(usize) -> u32,
        mut val: impl FnMut(usize) -> f32,
    ) {
        idx(self.lane);
        val(self.lane);
    }

    fn st_global_u32(
        &mut self,
        _: &mut GlobalMem,
        _: DevicePtr<u32>,
        mut idx: impl FnMut(usize) -> u32,
        mut val: impl FnMut(usize) -> u32,
    ) {
        idx(self.lane);
        val(self.lane);
    }

    fn sh_ld<T>(
        &mut self,
        _: ShPtr<T>,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, u32),
    ) {
        idx(self.lane);
        each(self.lane, 0);
    }

    fn sh_st<T>(
        &mut self,
        _: ShPtr<T>,
        mut idx: impl FnMut(usize) -> u32,
        mut bits: impl FnMut(usize) -> u32,
    ) {
        idx(self.lane);
        bits(self.lane);
    }

    fn sh_st_lanes<T>(&mut self, _: ShPtr<T>, mut bits: impl FnMut(usize) -> u32) {
        bits(self.lane);
    }
}

/// `lane_pass!(ctx, |pass| body)`: the lane pass `body` runs in, charged
/// the tally derived from `body` itself (see the module docs). `body` is
/// an expression over `pass: &mut impl Pass`, expanded twice: on a
/// [`Probe`] for the tally, then on the [`LanePass`](crate::LanePass);
/// its value is the second's.
///
/// `lane_pass!(ctx, memo, |pass| body)`, with `memo: &Memo<Tally>`,
/// derives the tally on the first call only and keeps it in `memo`: for a
/// pass site whose every call issues the same instructions, such as a
/// kernel's per-step pass within one block.
#[macro_export]
macro_rules! lane_pass {
    ($ctx:ident, |$pass:ident| $body:expr) => {{
        use $crate::alu::{Alu as _, Pass as _};
        let tally = $ctx.tally_of(|$pass| {
            let _ = $body;
        });
        let $pass = &mut $ctx.lane_pass(tally);
        $body
    }};
    ($ctx:ident, $memo:expr, |$pass:ident| $body:expr) => {{
        use $crate::alu::{Alu as _, Pass as _};
        let memo: &$crate::alu::Memo<$crate::Tally> = $memo;
        let tally = memo.get().unwrap_or_else(|| {
            let tally = $ctx.tally_of(|$pass| {
                let _ = $body;
            });
            memo.set(Some(tally));
            tally
        });
        let $pass = &mut $ctx.lane_pass(tally);
        $body
    }};
}

/// `loop_pass!(ctx, memo, state, |a, s, lane| test, |pass, s| trip)`:
/// the loop pass ([`BlockCtx::loop_pass`](crate::BlockCtx::loop_pass))
/// whose head tally is the loop's and the `if`'s branches plus the
/// instructions counted from `test` (run with `a: impl Alu`), and whose
/// step tally is counted from `trip` on a [`Probe`]. Both are derived on
/// the first call and kept in `memo: &Memo<(Tally, Tally)>`, as
/// [`lane_pass!`](crate::lane_pass) keeps one.
#[macro_export]
macro_rules! loop_pass {
    (
        $ctx:ident, $memo:expr, $state:ident,
        |$a:ident, $ts:pat_param, $l:ident| $test:expr,
        |$pass:ident, $ps:pat_param| $trip:expr $(,)?
    ) => {{
        use $crate::alu::{Alu as _, Pass as _};
        let memo: &$crate::alu::Memo<($crate::Tally, $crate::Tally)> = $memo;
        let (head, step) = memo.get().unwrap_or_else(|| {
            let lane = $ctx.block_dim as usize;
            let test = $crate::Tally::count(|$a| {
                let ($ts, $l) = (&$state, lane);
                let _ = $test;
            });
            let step = $ctx.tally_of(|$pass| {
                let $ps = &mut $state;
                $trip;
            });
            let head = test.plus($crate::Tally::NONE.op($crate::Op::Branch, 2));
            memo.set(Some((head, step)));
            (head, step)
        });
        $ctx.loop_pass(
            &mut $state,
            head,
            step,
            |$ts, $l| {
                let $a = $crate::alu::Run;
                $test
            },
            |$pass, $ps| $trip,
        )
    }};
}

/// `sh_tree!(ctx, slots, |a, lo, hi| take)`: the shared tree collective
/// ([`BlockCtx::sh_tree`](crate::BlockCtx::sh_tree)) over `slots`, whose
/// level takes slot `hi` into `lo` when `take` holds, charged the
/// instructions counted from `take` (run with `a: impl Alu`).
#[macro_export]
macro_rules! sh_tree {
    ($ctx:expr, $slots:expr, |$a:ident, $lo:ident, $hi:ident| $take:expr) => {{
        use $crate::alu::Alu as _;
        let slots = $slots;
        let take = $crate::Tally::count(|$a| {
            let ($lo, $hi) =
                ($crate::block::TreeSlot::probe(&slots), $crate::block::TreeSlot::probe(&slots));
            let _ = $take;
        });
        $ctx.sh_tree(slots, take, |$lo, $hi| {
            let $a = $crate::alu::Run;
            $take
        })
    }};
}

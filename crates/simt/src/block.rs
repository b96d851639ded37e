//! Lockstep block execution.
//!
//! Kernels are written in a block-wide SPMD style: every per-thread value
//! is a register vector ([`Reg`], one slot per thread of the block) and
//! every operation goes through [`BlockCtx`], which
//!
//! 1. applies the operation functionally to all *active* lanes, and
//! 2. charges issue cycles for every **warp** containing at least one
//!    active lane — so divergent control flow costs exactly what the SIMT
//!    hardware pays (both branch sides serialized for mixed warps).
//!
//! Global accesses stream lane addresses through the coalescing model,
//! shared accesses through the bank-conflict model, and atomics through
//! the serialization model (with CAS-loop emulation for float atomics on
//! CC 1.x, as the paper discusses for the Tesla C1060).
//!
//! **Host cost follows the work.** Every lane-wise op runs its body
//! through one lane loop, [`Mask::for_each_lane`]: a counted loop the
//! compiler can vectorise under a full mask, a walk over the set bits
//! under any other. Both see the same lanes in the same order, and
//! inactive lanes of a fresh register read back 0 either way, so no
//! counter can tell them apart. Memory ops resolve their buffer once per
//! op, not once per lane.
//!
//! A per-lane global load or store is one walk over the active lanes,
//! warp by warp: each lane's index is evaluated once, its word moves (a
//! load hands it to the op; a store writes the slot and, on a shadow
//! arena, logs it, in lane order) and its address is kept, and then the
//! warp is charged from its addresses. On CC 1.3 each half-warp's
//! transactions are counted from each 128-byte segment's mask of touched
//! 32-byte quarters (one quarter is a 32-byte transaction, an aligned
//! half 64, else 128), committed in one add each; on CC 2.x the warp's
//! lines are deduplicated in lane order and sorted only when a lane's
//! line is lower than the one before it, because the L1 must see each
//! warp's lines in ascending order: its LRU state, and so every later
//! hit or miss, depends on the order of its lookups. Both are the rules
//! of `coalesce`'s written-out `coalesce_cc13_half_warp` and
//! `lines_cc20`, so every counter and the L1's hit/miss sequence are
//! theirs.
//!
//! **Comparisons build mask words directly.** A compare fills one 64-lane
//! mask word at a time from fixed-width `[T; 64]` chunks of its two
//! operands (a loop the compiler vectorises; a partial tail word goes
//! lane by lane) and keeps the word's active lanes. Words with no active
//! lane are never compared.
//!
//! **Bank model.** A shared access is charged per conflict group (the
//! half-warp on CC 1.x, the warp on CC 2.x) at its serialization degree,
//! [`bank_conflict_degree`]: the largest number of distinct words that
//! fall in one bank. Word addresses that strictly increase in lane order
//! and span fewer words than there are banks (`last - first < banks`) are
//! distinct words in distinct banks, so they have degree 1 with nothing
//! to count (every contiguous tile and tree-reduction level); any other
//! group sorts its at most 32 addresses and counts distinct words per
//! bank. Atomics count each warp's distinct addresses and largest
//! multiplicity the same sorted way ([`atomic_replays`]).
//!
//! **Lane passes.** A loop whose control flow does not depend on the data
//! need not run op by op. [`BlockCtx::lane_pass`] charges its
//! data-independent instructions, a [`Tally`], in one step over the
//! active warps; the [`LanePass`] it returns runs the loop's memory
//! instructions one at a time, in program order, each over the active
//! lanes in lane order through the op's own memory model, while the
//! lanes' arithmetic runs as a host loop. Kernels do not write the tally:
//! [`lane_pass!`](crate::lane_pass) derives it from the pass body, whose
//! arithmetic goes through an [`Alu`](crate::Alu) (see [`crate::alu`]).
//! This is exact: the counters a tally charges hold whole numbers far
//! below 2^53, where one add of `k · c` leaves the same bits as `k` adds
//! of `c`, and the fractional ones (the texture weight, broadcast
//! camping) and the cache LRU state are updated by the memory
//! instructions, in the ops' order. A tally is charged as two precomputed
//! per-warp sums, its issue cycles and its instructions, each multiplied
//! by the warp count in one add.
//!
//! **Tree collective.** [`BlockCtx::sh_tree`] is the one collective that
//! also charges its shared accesses in closed form. It is the written-out
//! shared-memory tree
//!
//! ```text
//! for s in [block_dim / 2, …, 1] {
//!     let lower = lane < s;            // splat, compare, branch: every warp
//!     if_then(lower, |ctx| {
//!         let hi = lane + s;           // loads of both slots of every array
//!         if take(slot[lane], slot[hi]) {
//!             slot[lane] = slot[hi];   // a select and a store per array
//!         }
//!     });
//!     sync_threads();
//! }
//! ```
//!
//! with the caller's predicate, whose instructions
//! [`sh_tree!`](crate::sh_tree) counts from its code: the argmax of the
//! data-parallel tour rows ([`BlockCtx::sh_argmax_tree`]) and the
//! best-move and first-move reductions of the device local search. Every
//! counter a level charges is a whole number, so the level's sums are
//! those of its ops one by one; its shared accesses read and write slots
//! `l` and `l + s` for `l < s`, contiguous words, so each conflict group
//! of `k` lanes replays `ceil(k / banks) - 1` times; and since a level
//! writes only slots below `s` and reads its upper slots from `s` up,
//! taking the slots in lane order leaves the words the lockstep level
//! leaves.
//!
//! **Loop passes.** [`BlockCtx::loop_pass`] is a data-dependent loop
//! whose every trip is a pass. It equals the written-out loop
//!
//! ```text
//! loop_while(|ctx| {
//!     charge head;                 // over the warps still looping
//!     let cont = test;             // per looping lane, in lane order
//!     if_then(cont, |ctx| {
//!         charge body;             // over the continuing warps
//!         trip                     // its loads and stores, in order
//!     });
//!     cont
//! })
//! ```
//!
//! whose head tally holds the loop's and the `if`'s branches and the
//! test's instructions; [`loop_pass!`](crate::loop_pass) counts the test
//! and the body from their code. A trip keeps the looping mask in place:
//! the test clears the bits of the lanes that stop, and the mask's words
//! before and after give both warp counts and the divergence, counted
//! twice (once for the `if`, once for the back edge, as the written-out
//! form counts it: a warp diverges when it has both a lane that goes on
//! and one that stops). The last trip, in which no lane goes on, charges
//! the head and the divergence and no body. This is exact by the argument
//! above: every counter a trip charges is a whole number, and the memory
//! instructions run through the ops' own models under the same masks in
//! the same order.
//!
//! **Broadcast loads.** A global load whose active lanes all read one
//! address ([`BlockCtx::ld_global_u32_uniform`], `_f32`) has a fixed
//! answer per warp, so it is charged warp by warp without walking lanes:
//! one L1 lookup of its line on CC 2.x, one copy of the transaction that
//! one address coalesces to per non-empty half-warp on CC 1.3, and
//! broadcast camping on a warp with at least 16 active lanes. The rules
//! are the per-lane access's own (`WarpRules`), applied to the warps in
//! the same order, so every counter, the L1's hit/miss sequence and its
//! LRU state are those of the per-lane load of 32 equal addresses.

use std::cell::Cell;

use crate::alu::{LaneOp, Memo, Pass, Probe, Run};
use crate::cache::Cache;
use crate::coalesce::{cc13_half_warp_totals, cc20_warp_lines};
use crate::device::DeviceSpec;
use crate::global::{lane_addr, load_at, store_at, DevicePtr, GlobalMem, Word};
use crate::mask::{walk_bits, Mask, WARP};
use crate::pool::PoolItem;
use crate::rng::pm_draw;
use crate::shared::{ShPtr, SharedMem};
use crate::stats::KernelStats;

/// A per-thread register vector (one value per lane of the block, and a
/// spare slot past the last lane, which no mask covers: a pass body's
/// tally is derived on it, see [`crate::alu`]).
///
/// The backing buffer recycles through a thread-local free list (see
/// [`crate::pool`]): every lockstep operation produces a `Reg`, so the
/// hot path never touches the global allocator once the pool is warm.
#[derive(Debug)]
pub struct Reg<T: PoolItem>(pub(crate) Vec<T>);

impl<T: PoolItem> Clone for Reg<T> {
    fn clone(&self) -> Self {
        let mut v = T::take(self.0.len());
        v.copy_from_slice(&self.0);
        Reg(v)
    }
}

impl<T: PoolItem> Drop for Reg<T> {
    fn drop(&mut self) {
        T::put(std::mem::take(&mut self.0));
    }
}

impl<T: PoolItem> Reg<T> {
    /// Value held by `lane`.
    #[inline]
    pub fn lane(&self, lane: usize) -> T {
        self.0[lane]
    }

    /// Write `v` into `lane`, not charged: for a kernel that charges the
    /// ops this write stands for itself, in a [`BlockCtx::lane_pass`] or
    /// with [`BlockCtx::charge`].
    pub fn set_lane(&mut self, lane: usize, v: T) {
        self.0[lane] = v;
    }
}

/// Instruction classes with distinct issue costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer/logic ALU op (add, shift, mask…).
    IAlu,
    /// f32 add/sub/compare-class op.
    FAlu,
    /// f32 multiply / FMA.
    FMul,
    /// Transcendental on the SFU (`__powf`, `__expf`, rsqrt, rcp…).
    Sfu,
    /// Integer division or modulo (expanded to many instructions).
    IDivMod,
    /// Register move / select / conversion.
    Mov,
    /// Branch / loop bookkeeping.
    Branch,
    /// Memory instruction issue (address math + request).
    MemIssue,
    /// Shared-memory access instruction.
    Shared,
    /// Barrier.
    Bar,
}

/// Issue cost of `op` in shader cycles per warp on `dev`.
pub fn op_cycles(dev: &DeviceSpec, op: Op) -> u32 {
    let base = dev.issue_cycles_per_warp;
    match op {
        Op::IAlu | Op::FAlu | Op::FMul | Op::Mov | Op::Branch | Op::Bar => base,
        Op::MemIssue | Op::Shared => base,
        Op::Sfu => dev.sfu_cycles_per_warp,
        // Integer div/mod lowers to a long instruction sequence on both
        // GT200 and Fermi (no hardware divider): ~16 ALU ops.
        Op::IDivMod => 16 * base,
    }
}

/// Every [`Op`], for walking a [`Tally`] (which counts `op` in slot
/// `op as usize`).
pub(crate) const OPS: [Op; 10] = {
    use Op::*;
    // Exhaustive, so a new `Op` fails to compile until it is listed here.
    match IAlu {
        IAlu | FAlu | FMul | Sfu | IDivMod | Mov | Branch | MemIssue | Shared | Bar => {}
    }
    [IAlu, FAlu, FMul, Sfu, IDivMod, Mov, Branch, MemIssue, Shared, Bar]
};

/// The data-independent instructions of a [`LanePass`]: a count per
/// [`Op`] class, charged to every active warp, and Park–Miller draws per
/// active lane. Kernels derive theirs from the pass body
/// ([`Tally::count`], [`BlockCtx::tally_of`]); the interpreter's own
/// machinery builds its few with [`Tally::op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub(crate) ops: [u64; OPS.len()],
    pub(crate) draws: u64,
}

impl Tally {
    /// No instructions.
    pub const NONE: Tally = Tally { ops: [0; OPS.len()], draws: 0 };

    /// `self` plus `count` instructions of class `op`.
    pub const fn op(mut self, op: Op, count: u64) -> Tally {
        self.ops[op as usize] += count;
        self
    }

    /// `self` plus `count` Park–Miller draws ([`pm_draw`]), each the
    /// division-free step (`mul.lo`, `mul.hi`, fold, conditional add: 4
    /// `IAlu`), the scale to `[0, 1)` (1 `FMul`) and an rng call: how
    /// [`BlockCtx::lcg_next_f32`] and [`Alu::draw`](crate::Alu::draw) charge one.
    pub const fn draws(mut self, count: u64) -> Tally {
        self.draws += count;
        self.op(Op::IAlu, 4 * count).op(Op::FMul, count)
    }

    /// `self` plus `other`.
    pub fn plus(mut self, other: Tally) -> Tally {
        self.ops.iter_mut().zip(other.ops).for_each(|(a, b)| *a += b);
        self.draws += other.draws;
        self
    }

    /// `self` repeated `k` times.
    pub fn times(mut self, k: u64) -> Tally {
        self.ops.iter_mut().for_each(|a| *a *= k);
        self.draws *= k;
        self
    }
}

/// Trips after which a data-dependent loop is taken to be runaway.
const MAX_TRIPS: u64 = 100_000_000;

/// A [`Tally`]'s charge on one device: issue cycles and instructions per
/// warp, and draws per lane.
#[derive(Debug, Clone, Copy)]
struct TallyCharge {
    cycles: f64,
    instructions: f64,
    draws: f64,
}

/// Largest `DeviceSpec::shared_banks` the bank model counts; launches on
/// a device with more banks (or none) are refused.
pub(crate) const MAX_SHARED_BANKS: u32 = 64;

/// Serialization degree of one shared-memory conflict group: the largest
/// number of *distinct* word addresses that fall in one bank (repeats of
/// one word are a broadcast). `words` holds the group's active lanes'
/// word addresses in lane order and may be reordered; an empty group has
/// degree 0. See the module docs for the rule.
pub fn bank_conflict_degree(words: &mut [u32], banks: u32) -> u32 {
    debug_assert!((1..=MAX_SHARED_BANKS).contains(&banks));
    let Some(&first) = words.first() else {
        return 0;
    };
    if words.windows(2).all(|p| p[0] < p[1]) && words[words.len() - 1] - first < banks {
        return 1;
    }
    words.sort_unstable();
    let bank = |w: u32| if banks.is_power_of_two() { w & (banks - 1) } else { w % banks };
    let mut per_bank = [0u32; MAX_SHARED_BANKS as usize];
    let mut degree = 0;
    for word in words.chunk_by(|a, b| a == b) {
        let count = &mut per_bank[bank(word[0]) as usize];
        *count += 1;
        degree = degree.max(*count);
    }
    degree
}

/// Replay counts of one warp's atomics: the number of distinct addresses
/// and the largest number of lanes sharing one. `addrs` may be reordered.
pub fn atomic_replays(addrs: &mut [u64]) -> (u32, u32) {
    addrs.sort_unstable();
    addrs
        .chunk_by(|a, b| a == b)
        .fold((0, 0), |(distinct, most), run| (distinct + 1, most.max(run.len() as u32)))
}

/// The lanes of a warp's first half (CC 1.3 coalesces per half-warp).
const HALF_WARP_BITS: u32 = (1 << (WARP / 2)) - 1;

/// Fewest lanes of a warp whose load of one address camps on a partition.
const CAMPING_LANES: usize = 16;

/// The per-warp rules of one global access, which the per-lane access
/// ([`BlockCtx::global_access`]) and the broadcast load both charge
/// through.
struct WarpRules<'r> {
    stats: &'r mut KernelStats,
    l1: &'r mut Cache,
    broadcast_camping: f64,
    fermi: bool,
    store: bool,
}

impl<'r> WarpRules<'r> {
    /// The rules of one access by `warps` active warps, which each issue
    /// one memory instruction.
    fn new(
        dev: &DeviceSpec,
        stats: &'r mut KernelStats,
        l1: &'r mut Cache,
        store: bool,
        warps: usize,
    ) -> Self {
        stats.mem_warp_instructions += warps as f64;
        let (broadcast_camping, fermi) = (dev.broadcast_camping, dev.compute_capability.is_fermi());
        WarpRules { stats, l1, broadcast_camping, fermi, store }
    }

    /// Partition camping: a warp-wide broadcast load means every
    /// concurrently running block is reading this address right now, all
    /// hammering one DRAM partition — traffic is effectively serialized by
    /// `broadcast_camping`. A load by `lanes` lanes camps when at least
    /// [`CAMPING_LANES`] read one address (`one_addr`, asked only then).
    fn camping(&self, lanes: usize, one_addr: impl FnOnce() -> bool) -> f64 {
        if !self.store && lanes >= CAMPING_LANES && one_addr() {
            self.broadcast_camping
        } else {
            1.0
        }
    }

    /// One 128-byte line a warp touches on CC 2.x: loads look it up in the
    /// L1, and a miss or a store goes to DRAM as one transaction.
    fn line(&mut self, line: u64, camping: f64) {
        if !self.store {
            if self.l1.access(line) {
                self.stats.l1_hits += 1.0;
                return;
            }
            self.stats.l1_misses += 1.0;
        }
        self.transactions(1, 128, camping);
    }

    /// `count` DRAM transactions of `bytes` in all, in one add each: a
    /// CC 1.3 half-warp's coalesced segments (no cache) or a CC 2.x line.
    /// Exact: camping is only charged on a warp whose lanes all read one
    /// address, whose half-warps issue one transaction each, and every
    /// other sum is of whole numbers far below 2^53.
    fn transactions(&mut self, count: u32, bytes: u32, camping: f64) {
        if count == 0 {
            return;
        }
        self.stats.dram_bytes += bytes as f64 * camping;
        if self.store {
            self.stats.st_transactions += count as f64;
        } else {
            self.stats.ld_transactions += count as f64;
        }
    }
}

/// Execution context of one thread block.
pub struct BlockCtx<'a> {
    pub(crate) device: &'a DeviceSpec,
    /// Block index within the grid.
    pub block_idx: u32,
    /// Grid size in blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    pub(crate) sm_id: usize,
    mask_stack: Vec<Mask>,
    shared: SharedMem,
    pub(crate) stats: &'a mut KernelStats,
    tex: &'a mut Cache,
    l1: &'a mut Cache,
    declared_shared_bytes: u32,
}

impl<'a> BlockCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        device: &'a DeviceSpec,
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        sm_id: usize,
        shared_bytes: u32,
        stats: &'a mut KernelStats,
        tex: &'a mut Cache,
        l1: &'a mut Cache,
    ) -> Self {
        BlockCtx {
            device,
            block_idx,
            grid_dim,
            block_dim,
            sm_id,
            mask_stack: vec![Mask::all(block_dim as usize)],
            shared: SharedMem::new(shared_bytes),
            stats,
            tex,
            l1,
            declared_shared_bytes: shared_bytes,
        }
    }

    /// The device this block runs on.
    pub fn device(&self) -> &DeviceSpec {
        self.device
    }

    /// Current active mask.
    #[inline]
    pub fn active(&self) -> &Mask {
        self.mask_stack.last().expect("mask stack never empty")
    }

    /// Charge `count` instructions of class `op` to every active warp.
    pub fn charge(&mut self, op: Op, count: u64) {
        let warps = if count == 0 { 0.0 } else { self.active().active_warps() as f64 };
        if warps == 0.0 {
            return;
        }
        let cycles = op_cycles(self.device, op) as f64;
        self.stats.issue_cycles_per_sm[self.sm_id] += warps * cycles * count as f64;
        self.stats.warp_instructions += warps * count as f64;
    }

    /// Charge `warps` warps `cycles` issue cycles and `instructions`
    /// instructions each.
    fn charge_warps(&mut self, warps: usize, cycles: f64, instructions: f64) {
        if warps == 0 || instructions == 0.0 {
            return;
        }
        let warps = warps as f64;
        self.stats.issue_cycles_per_sm[self.sm_id] += warps * cycles;
        self.stats.warp_instructions += warps * instructions;
    }

    /// `tally`'s per-warp sums on this block's device.
    fn tally_charge(&self, tally: Tally) -> TallyCharge {
        let (cycles, instructions) = OPS.iter().fold((0, 0), |(c, i), &op| {
            let k = tally.ops[op as usize];
            (c + k * op_cycles(self.device, op) as u64, i + k)
        });
        TallyCharge {
            cycles: cycles as f64,
            instructions: instructions as f64,
            draws: tally.draws as f64,
        }
    }

    /// Charge a tally to `warps` warps holding `lanes` lanes in one step
    /// (exact, see the module docs).
    fn charge_tally(&mut self, t: TallyCharge, warps: usize, lanes: usize) {
        self.charge_warps(warps, t.cycles, t.instructions);
        if t.draws != 0.0 {
            self.stats.rng_calls += lanes as f64 * t.draws;
        }
    }

    /// The tally of a pass body: `body` run once on a [`Probe`] of this
    /// block (see [`crate::alu`]). [`lane_pass!`](crate::lane_pass) derives
    /// a lane pass's tally with it.
    pub fn tally_of(&self, body: impl FnOnce(&mut Probe)) -> Tally {
        Probe::tally(self.block_dim as usize, body)
    }

    /// Charge `tally` over the active warps in one step (exact, see the
    /// module docs) and return the pass for the loop's memory instructions:
    /// the primitive under [`lane_pass!`](crate::lane_pass), which derives
    /// `tally` from the body.
    pub fn lane_pass(&mut self, tally: Tally) -> LanePass<'_, 'a> {
        let t = self.tally_charge(tally);
        let active = self.active();
        self.charge_tally(t, active.active_warps(), active.count());
        LanePass(self)
    }

    /// Charge one memory instruction to the active warps; returns how many
    /// there are.
    fn issue_mem(&mut self) -> usize {
        let warps = self.active().active_warps();
        self.charge_warps(warps, op_cycles(self.device, Op::MemIssue) as f64, 1.0);
        warps
    }

    // --- register creation ------------------------------------------------

    /// One `op` whose result `f(thread)` fills every lane, active or not.
    fn every_lane<T: PoolItem>(&mut self, op: LaneOp, f: impl Fn(u32) -> T) -> Reg<T> {
        self.lane_op(op);
        let mut out = T::take(self.block_dim as usize + 1);
        (0..self.block_dim).zip(&mut out).for_each(|(t, o)| *o = f(t));
        Reg(out)
    }

    /// `threadIdx.x` of every lane.
    pub fn thread_idx(&mut self) -> Reg<u32> {
        self.every_lane(LaneOp::Mov, |t| t)
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_thread_idx(&mut self) -> Reg<u32> {
        let base = self.block_idx * self.block_dim;
        self.every_lane(LaneOp::Int, |t| base + t)
    }

    /// Broadcast an f32 constant.
    pub fn splat_f32(&mut self, v: f32) -> Reg<f32> {
        self.every_lane(LaneOp::Mov, |_| v)
    }

    /// Broadcast a u32 constant.
    pub fn splat_u32(&mut self, v: u32) -> Reg<u32> {
        self.every_lane(LaneOp::Mov, |_| v)
    }

    /// Initialise a register from a lane function (costed as one move; use
    /// for thread-dependent seeds and similar setup, not bulk compute).
    /// Only *active* lanes are evaluated — inactive lanes read back 0.
    pub fn reg_from_fn_u32(&mut self, f: impl FnMut(usize) -> u32) -> Reg<u32> {
        self.lane_op(LaneOp::Mov);
        self.map_lanes(f)
    }

    // --- generic lane-wise helpers ----------------------------------------

    /// A fresh register with `f(lane)` in every active lane and 0 in the
    /// others: the output side of every lane-wise op, over the one lane
    /// loop ([`Mask::for_each_lane`]).
    #[inline(always)]
    fn map_lanes<T: PoolItem>(&self, mut f: impl FnMut(usize) -> T) -> Reg<T> {
        let active = self.active();
        let mut out = T::take(active.len() + 1);
        let o = &mut out[..active.len()];
        active.for_each_lane(|lane| o[lane] = f(lane));
        Reg(out)
    }

    /// The first `len` lanes of a register, sized for the active mask so
    /// the lane loop's indexing needs no bounds checks.
    #[inline(always)]
    fn view<'r, T: PoolItem>(&self, r: &'r Reg<T>) -> &'r [T] {
        &r.0[..self.active().len()]
    }

    /// Charge one `op` to every active warp: its class's instruction and
    /// any SFU instructions beside it.
    #[inline(always)]
    fn lane_op(&mut self, op: LaneOp) {
        self.charge(op.class(), 1);
        if op.sfu() > 0 {
            self.charge(Op::Sfu, op.sfu());
        }
    }

    fn bin<T: PoolItem>(
        &mut self,
        op: LaneOp,
        a: &Reg<T>,
        b: &Reg<T>,
        f: impl Fn(T, T) -> T,
    ) -> Reg<T> {
        self.lane_op(op);
        let (a, b) = (self.view(a), self.view(b));
        self.map_lanes(|l| f(a[l], b[l]))
    }

    fn un<T: PoolItem, U: PoolItem>(
        &mut self,
        op: LaneOp,
        a: &Reg<T>,
        f: impl Fn(T) -> U,
    ) -> Reg<U> {
        self.lane_op(op);
        let a = self.view(a);
        self.map_lanes(|l| f(a[l]))
    }

    // --- f32 arithmetic -----------------------------------------------------

    pub fn fadd(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(LaneOp::FAdd, a, b, |x, y| x + y)
    }
    pub fn fsub(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(LaneOp::FAdd, a, b, |x, y| x - y)
    }
    pub fn fmul(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(LaneOp::FMul, a, b, |x, y| x * y)
    }
    /// `a * b + c` as a single FMA.
    pub fn fma(&mut self, a: &Reg<f32>, b: &Reg<f32>, c: &Reg<f32>) -> Reg<f32> {
        self.lane_op(LaneOp::FMul);
        let (a, b, c) = (self.view(a), self.view(b), self.view(c));
        self.map_lanes(|l| a[l].mul_add(b[l], c[l]))
    }
    /// Division lowers to SFU reciprocal + multiply.
    pub fn fdiv(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(LaneOp::FDiv, a, b, |x, y| x / y)
    }
    /// `__powf` — two SFU passes (log + exp) plus a multiply.
    pub fn fpow(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.bin(LaneOp::FPow, a, b, f32::powf)
    }

    // --- u32 arithmetic -----------------------------------------------------

    pub fn iadd(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, u32::wrapping_add)
    }
    pub fn isub(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, u32::wrapping_sub)
    }
    pub fn imul(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, u32::wrapping_mul)
    }
    pub fn imod(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::DivMod, a, b, |x, y| x % y)
    }
    pub fn idiv(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::DivMod, a, b, |x, y| x / y)
    }
    pub fn iand(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, |x, y| x & y)
    }
    pub fn ior(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, |x, y| x | y)
    }
    pub fn ishl(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, |x, y| x.wrapping_shl(y))
    }
    pub fn ishr(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, |x, y| x.wrapping_shr(y))
    }
    pub fn imin(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.bin(LaneOp::Int, a, b, u32::min)
    }

    /// u32 → f32 conversion.
    pub fn u2f(&mut self, a: &Reg<u32>) -> Reg<f32> {
        self.un(LaneOp::Mov, a, |x| x as f32)
    }

    /// f32 → u32 truncating conversion.
    pub fn f2u(&mut self, a: &Reg<f32>) -> Reg<u32> {
        self.un(LaneOp::Mov, a, |x| x.max(0.0) as u32)
    }

    /// Mask selecting a single lane of the block (e.g. "thread 0 writes
    /// the result"); empty when `lane` is outside the block.
    pub fn lane_mask(&self, lane: u32) -> Mask {
        let mut m = Mask::none(self.block_dim as usize);
        if lane < self.block_dim {
            m.set(lane as usize, true);
        }
        m
    }

    // --- comparisons & selection ---------------------------------------------

    fn cmp<T: PoolItem>(&mut self, a: &Reg<T>, b: &Reg<T>, f: impl Fn(T, T) -> bool) -> Mask {
        self.lane_op(LaneOp::Cmp);
        let (a, b) = (self.view(a), self.view(b));
        self.active().filter_words(|wi| {
            let (a, b) = (&a[wi * 64..], &b[wi * 64..]);
            match (a.first_chunk::<64>(), b.first_chunk::<64>()) {
                // Each warp half into a u32: that loop vectorises, a
                // 64-lane u64 fold does not.
                (Some(a), Some(b)) => {
                    let warp = |w: usize| {
                        let bits =
                            (0..WARP).fold(0, |m, i| m | (f(a[w + i], b[w + i]) as u32) << i);
                        (bits as u64) << w
                    };
                    warp(0) | warp(WARP)
                }
                _ => a
                    .iter()
                    .zip(b)
                    .enumerate()
                    .fold(0, |m, (i, (&x, &y))| m | (f(x, y) as u64) << i),
            }
        })
    }

    pub fn flt(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x < y)
    }
    pub fn fle(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x <= y)
    }
    pub fn fge(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x >= y)
    }
    pub fn fgt(&mut self, a: &Reg<f32>, b: &Reg<f32>) -> Mask {
        self.cmp(a, b, |x, y| x > y)
    }
    pub fn ult(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x < y)
    }
    pub fn ule(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x <= y)
    }
    pub fn ueq(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x == y)
    }
    pub fn une(&mut self, a: &Reg<u32>, b: &Reg<u32>) -> Mask {
        self.cmp(a, b, |x, y| x != y)
    }

    /// `m ? a : b` on the active lanes: `b` everywhere, then `a` over the
    /// active lanes of `m` (which are usually few, or all).
    fn sel<T: PoolItem>(&mut self, m: &Mask, a: &Reg<T>, b: &Reg<T>) -> Reg<T> {
        self.lane_op(LaneOp::Mov);
        let (a, b) = (self.view(a), self.view(b));
        let mut out = self.map_lanes(|l| b[l]);
        let o = &mut out.0[..a.len()];
        self.active().and(m).for_each_lane(|l| o[l] = a[l]);
        out
    }

    /// Lane-wise select: `m ? a : b`.
    pub fn select_f32(&mut self, m: &Mask, a: &Reg<f32>, b: &Reg<f32>) -> Reg<f32> {
        self.sel(m, a, b)
    }

    /// Lane-wise select: `m ? a : b`.
    pub fn select_u32(&mut self, m: &Mask, a: &Reg<u32>, b: &Reg<u32>) -> Reg<u32> {
        self.sel(m, a, b)
    }

    /// Predicated assignment: active lanes copy `src` into `dst`, inactive
    /// lanes keep their value (how real registers behave under masking).
    pub fn assign_f32(&mut self, dst: &mut Reg<f32>, src: &Reg<f32>) {
        self.assign(dst, src);
    }

    /// Predicated assignment for u32 registers.
    pub fn assign_u32(&mut self, dst: &mut Reg<u32>, src: &Reg<u32>) {
        self.assign(dst, src);
    }

    fn assign<T: PoolItem>(&mut self, dst: &mut Reg<T>, src: &Reg<T>) {
        self.lane_op(LaneOp::Mov);
        let active = self.active();
        let (d, s) = (&mut dst.0[..active.len()], &src.0[..active.len()]);
        active.for_each_lane(|l| d[l] = s[l]);
    }

    // --- control flow ----------------------------------------------------------

    /// Count warps whose active lanes split over `cond`: a warp (one half
    /// of a mask word) diverges when it has active lanes on both sides.
    fn count_divergence(&mut self, cond: &Mask) {
        let active = self.active();
        debug_assert_eq!(active.len(), cond.len());
        let mut divergent = 0u32;
        for (&a, &c) in active.words().iter().zip(cond.words()) {
            let (taken, not_taken) = (a & c, a & !c);
            for half in [0, WARP] {
                divergent +=
                    ((taken >> half) as u32 != 0 && (not_taken >> half) as u32 != 0) as u32;
            }
        }
        self.stats.divergent_branches += divergent as f64;
    }

    /// Structured if/else: runs `then_f` with the mask narrowed to
    /// `active & cond`, then `else_f` with `active & !cond`. Warps with
    /// lanes on both sides are counted divergent and pay for both bodies.
    pub fn if_else(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        then_f: impl FnOnce(&mut Self, &mut GlobalMem),
        else_f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        self.charge(Op::Branch, 1);
        self.count_divergence(cond);
        let then_mask = self.active().and(cond);
        let else_mask = self.active().and_not(cond);
        if then_mask.any() {
            self.mask_stack.push(then_mask);
            then_f(self, gm);
            self.mask_stack.pop();
        }
        if else_mask.any() {
            self.mask_stack.push(else_mask);
            else_f(self, gm);
            self.mask_stack.pop();
        }
    }

    /// `if_else` without an else branch.
    pub fn if_then(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        then_f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        self.if_else(gm, cond, then_f, |_, _| {});
    }

    /// Charge and account a branch on `cond` without executing anything.
    /// Pair with [`BlockCtx::with_mask`] when the two sides of a branch
    /// must share mutable per-lane state (which `if_else`'s simultaneous
    /// closures cannot express).
    pub fn branch(&mut self, cond: &Mask) {
        self.charge(Op::Branch, 1);
        self.count_divergence(cond);
    }

    /// Run `f` with the active mask narrowed to `active & cond`, charging
    /// nothing for the region itself (use [`BlockCtx::branch`] for the
    /// branch cost). Skipped entirely when no lane qualifies.
    pub fn with_mask(
        &mut self,
        gm: &mut GlobalMem,
        cond: &Mask,
        f: impl FnOnce(&mut Self, &mut GlobalMem),
    ) {
        let m = self.active().and(cond);
        if m.any() {
            self.mask_stack.push(m);
            f(self, gm);
            self.mask_stack.pop();
        }
    }

    /// Data-dependent loop. `body` executes under the mask of lanes still
    /// looping and returns the mask of lanes that want another trip; the
    /// loop ends when none do. A warp keeps paying as long as *any* of its
    /// lanes iterates — the intra-warp serialization the paper's
    /// roulette-wheel scan suffers. (Single-closure form so condition and
    /// body can share mutable per-lane state.)
    pub fn loop_while(
        &mut self,
        gm: &mut GlobalMem,
        mut body: impl FnMut(&mut Self, &mut GlobalMem) -> Mask,
    ) {
        let entry = self.active().clone();
        self.mask_stack.push(entry);
        let mut trips = 0u64;
        loop {
            self.charge(Op::Branch, 1);
            let cont = body(self, gm);
            let next = self.active().and(&cont);
            // Warps with lanes exiting while others continue diverge.
            self.count_divergence(&cont);
            if !next.any() {
                break;
            }
            *self.mask_stack.last_mut().expect("pushed above") = next;
            trips += 1;
            assert!(trips < MAX_TRIPS, "loop_while exceeded {MAX_TRIPS} iterations");
        }
        self.mask_stack.pop();
    }

    /// Data-dependent loop whose every trip is a pass (see "Loop passes"
    /// in the module docs). Each trip charges `head` over the warps still
    /// looping and asks `test(state, lane)` once per looping lane, in lane
    /// order; the lanes that pass charge `body` over their warps and run
    /// `trip`'s memory instructions, and the loop ends on a trip that no
    /// lane passes. Per-lane state lives in `state`, which both closures
    /// see. The primitive under [`loop_pass!`](crate::loop_pass), which
    /// derives `head` and `body` from the code of `test` and `trip`.
    pub fn loop_pass<S>(
        &mut self,
        state: &mut S,
        head: Tally,
        body: Tally,
        mut test: impl FnMut(&S, usize) -> bool,
        mut trip: impl FnMut(&mut LanePass<'_, 'a>, &mut S),
    ) {
        let (head, body) = (self.tally_charge(head), self.tally_charge(body));
        let entry = self.active().clone();
        self.mask_stack.push(entry);
        let mut trips = 0u64;
        loop {
            // Warps and lanes still looping and going on, and the warps
            // with lanes on both sides.
            let (mut looping, mut on, mut looping_lanes, mut on_lanes) = (0, 0, 0, 0);
            let mut divergent = 0u32;
            self.mask_stack.last_mut().expect("pushed above").retain(
                |l| test(state, l),
                |old, new| {
                    looping_lanes += old.count_ones() as usize;
                    on_lanes += new.count_ones() as usize;
                    for shift in [0, WARP] {
                        let (a, c) = ((old >> shift) as u32, (new >> shift) as u32);
                        looping += (a != 0) as usize;
                        on += (c != 0) as usize;
                        divergent += (c != 0 && c != a) as u32;
                    }
                },
            );
            self.charge_tally(head, looping, looping_lanes);
            // The `if`'s divergence, then the back edge's.
            self.stats.divergent_branches += divergent as f64;
            self.stats.divergent_branches += divergent as f64;
            if on == 0 {
                break;
            }
            self.charge_tally(body, on, on_lanes);
            trip(&mut LanePass(self), state);
            trips += 1;
            assert!(trips < MAX_TRIPS, "loop_pass exceeded {MAX_TRIPS} iterations");
        }
        self.mask_stack.pop();
    }

    /// `__syncthreads()`: semantically a no-op in lockstep execution, but
    /// charged and counted.
    pub fn sync_threads(&mut self) {
        // Barriers are charged for every warp of the block (even fully
        // masked ones must arrive in CUDA's model).
        let warps = self.block_dim.div_ceil(WARP as u32) as f64;
        let cycles = op_cycles(self.device, Op::Bar) as f64;
        self.stats.issue_cycles_per_sm[self.sm_id] += warps * cycles;
        self.stats.warp_instructions += warps;
        self.stats.barriers += 1.0;
    }

    // --- shared memory ----------------------------------------------------------

    /// Allocate shared f32 storage; panics if over the declared budget.
    pub fn shared_alloc_f32(&mut self, len: usize) -> ShPtr<f32> {
        self.shared_alloc(len)
    }

    /// Allocate shared u32 storage; panics if over the declared budget.
    pub fn shared_alloc_u32(&mut self, len: usize) -> ShPtr<u32> {
        self.shared_alloc(len)
    }

    fn shared_alloc<T>(&mut self, len: usize) -> ShPtr<T> {
        let (wanted, declared) = (4 * len, self.declared_shared_bytes);
        let off = self.shared.try_alloc(len as u32).unwrap_or_else(|| {
            panic!("shared memory exhausted: wanted {wanted} bytes more, declared {declared}")
        });
        ShPtr::new(off, len as u32)
    }

    /// One shared access, `each(shared, lane, word of ptr[idx(lane)])` in
    /// lane order, charged per conflict group (CC 1.x half-warp, 2.x warp).
    fn shared_access<T>(
        &mut self,
        ptr: ShPtr<T>,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(&mut SharedMem, usize, u32),
    ) {
        self.charge(Op::Shared, 1);
        let (active, shared) = (self.mask_stack.last().expect("never empty"), &mut self.shared);
        let banks = self.device.shared_banks;
        let group = if self.device.compute_capability.is_fermi() { WARP } else { WARP / 2 };
        let mut words = [0u32; WARP];
        let mut extra = 0;
        for (wi, &bits) in active.words().iter().enumerate() {
            for lane0 in (0..64).step_by(group) {
                let mut n = 0;
                let g = (bits >> lane0) & (u64::MAX >> (64 - group));
                walk_bits(g, wi * 64 + lane0, &mut |l| {
                    words[n] = ptr.word_addr(idx(l));
                    each(shared, l, words[n]);
                    n += 1;
                });
                extra += bank_conflict_degree(&mut words[..n], banks).saturating_sub(1);
            }
        }
        self.stats.shared_accesses += active.count() as f64;
        if extra > 0 {
            let extra = extra as f64;
            self.stats.bank_conflict_extra += extra;
            self.stats.issue_cycles_per_sm[self.sm_id] +=
                extra * op_cycles(self.device, Op::Shared) as f64;
        }
    }

    fn sh_ld<T: PoolItem>(
        &mut self,
        ptr: ShPtr<T>,
        idx: &Reg<u32>,
        from_bits: impl Fn(u32) -> T,
    ) -> Reg<T> {
        let idx = self.view(idx);
        let mut out = T::take(idx.len() + 1);
        self.shared_access(ptr, |l| idx[l], |sh, l, w| out[l] = from_bits(sh.load(w)));
        Reg(out)
    }

    fn sh_st<T: PoolItem>(
        &mut self,
        ptr: ShPtr<T>,
        idx: &Reg<u32>,
        val: &Reg<T>,
        to_bits: impl Fn(T) -> u32,
    ) {
        let (idx, val) = (self.view(idx), self.view(val));
        self.shared_access(ptr, |l| idx[l], |sh, l, w| sh.store(w, to_bits(val[l])));
    }

    /// Shared load with per-lane indices.
    pub fn sh_ld_f32(&mut self, ptr: ShPtr<f32>, idx: &Reg<u32>) -> Reg<f32> {
        self.sh_ld(ptr, idx, f32::from_bits)
    }

    /// Shared store with per-lane indices (lane order resolves races).
    pub fn sh_st_f32(&mut self, ptr: ShPtr<f32>, idx: &Reg<u32>, val: &Reg<f32>) {
        self.sh_st(ptr, idx, val, f32::to_bits);
    }

    /// Shared load with per-lane indices (u32).
    pub fn sh_ld_u32(&mut self, ptr: ShPtr<u32>, idx: &Reg<u32>) -> Reg<u32> {
        self.sh_ld(ptr, idx, |w| w)
    }

    /// Shared store with per-lane indices (u32).
    pub fn sh_st_u32(&mut self, ptr: ShPtr<u32>, idx: &Reg<u32>, val: &Reg<u32>) {
        self.sh_st(ptr, idx, val, |w| w);
    }

    /// Uniform (broadcast) shared read — all active lanes read one word;
    /// broadcast never conflicts.
    pub fn sh_ld_f32_uniform(&mut self, ptr: ShPtr<f32>, idx: u32) -> f32 {
        f32::from_bits(self.sh_ld_uniform(ptr, idx))
    }

    /// Uniform (broadcast) shared read of a u32 word.
    pub fn sh_ld_u32_uniform(&mut self, ptr: ShPtr<u32>, idx: u32) -> u32 {
        self.sh_ld_uniform(ptr, idx)
    }

    fn sh_ld_uniform<T>(&mut self, ptr: ShPtr<T>, idx: u32) -> u32 {
        self.charge(Op::Shared, 1);
        self.stats.shared_accesses += self.active().count() as f64;
        self.shared.load(ptr.word_addr(idx))
    }

    /// Shared-memory argmax tree over the first `block_dim` slots of
    /// `vals`/`idxs`, in place: at each level `s = block_dim/2, …, 1`,
    /// lane `l < s` takes slot `l + s` when its value is strictly greater
    /// (ties and NaN keep `l`), then the block syncs. Slot 0 ends with
    /// the first-lowest-slot maximum and its index.
    ///
    /// One [`BlockCtx::sh_tree`] whose level takes on one compare.
    pub fn sh_argmax_tree(&mut self, vals: ShPtr<f32>, idxs: ShPtr<u32>) {
        crate::sh_tree!(self, [vals.words(), idxs], |a, lo, hi| a.fgt(hi.f32(0), lo.f32(0)));
    }

    /// The shared tree collective over the first `block_dim` slots of
    /// `K` word arrays, in place (see "Tree collective" in the module
    /// docs): at each level `s = block_dim/2, …, 1`, lane `l < s` copies
    /// the words of slot `l + s` of every array into slot `l` when
    /// `take(lo, hi)` holds for the two slots ([`TreeSlot`]s, read lazily,
    /// so a predicate loads only the words it compares), then the block
    /// syncs. Slot 0 ends with the reduction.
    ///
    /// Counters are charged in closed form, exactly as the written-out
    /// level loop charges them: a splat, a `lane < s` compare and a branch
    /// over every warp (one divergent warp when `s` is not a multiple of
    /// 32); over the `ceil(s/32)` warps of lanes below `s`, the level: the
    /// `lane + s` add, `take`'s instructions (`take_tally`, which
    /// [`sh_tree!`](crate::sh_tree) counts from `take`), and per array two
    /// shared loads, a select and a shared store, each shared instruction
    /// an access of `s` contiguous words; and a `__syncthreads`.
    ///
    /// Panics unless every lane is active and `block_dim` is a power of
    /// two: the closed form assumes both.
    pub fn sh_tree<const K: usize>(
        &mut self,
        slots: [ShPtr<u32>; K],
        take_tally: Tally,
        take: impl Fn(TreeSlot<K>, TreeSlot<K>) -> bool,
    ) {
        let t = self.block_dim;
        assert!(t.is_power_of_two(), "shared tree needs a power-of-two block, not {t}");
        assert!(self.active().is_full(), "shared tree needs every lane of the block active");
        assert!(
            slots.iter().all(|p| p.len() >= t as usize),
            "shared tree needs block_dim slots in every array"
        );
        let k = K as u64;
        let level = Tally::NONE.op(Op::IAlu, 1).op(Op::Shared, 3 * k).op(Op::Mov, k);
        let level = level.plus(take_tally);
        let accesses = level.ops[Op::Shared as usize] as f64;
        let lower = self.tally_charge(level);
        let c = |op| op_cycles(self.device, op) as f64;
        let warp = WARP as u32;
        let group = if self.device.compute_capability.is_fermi() { warp } else { warp / 2 };
        let block_warps = t.div_ceil(warp) as f64;
        let block_cycles = c(Op::Mov) + c(Op::FAlu) + c(Op::Branch) + c(Op::Bar);
        let at = slots.map(|p| p.off_words as usize);
        let (mut instr, mut cycles) = (0.0, 0.0);
        let mut s = t / 2;
        while s >= 1 {
            let lo_warps = s.div_ceil(warp) as f64;
            instr += 4.0 * block_warps + lower.instructions * lo_warps;
            cycles += block_warps * block_cycles + lo_warps * lower.cycles;
            // Each conflict group of the lanes below `s` holds `k`
            // contiguous words, `ceil(k / banks)` of them in its busiest
            // bank, so it replays `ceil(k / banks) - 1` times.
            let banks = self.device.shared_banks;
            let extra: u32 = (0..s)
                .step_by(group as usize)
                .map(|g| (s - g).min(group).div_ceil(banks) - 1)
                .sum();
            self.stats.bank_conflict_extra += accesses * extra as f64;
            cycles += accesses * extra as f64 * c(Op::Shared);
            self.stats.shared_accesses += accesses * s as f64;
            self.stats.divergent_branches += f64::from(s % warp != 0);
            self.stats.barriers += 1.0;
            let words = self.shared.words_mut();
            for l in 0..s as usize {
                let h = l + s as usize;
                let slot = |i: usize| TreeSlot { words, at: at.map(|a| a + i) };
                if take(slot(l), slot(h)) {
                    for a in at {
                        words[a + l] = words[a + h];
                    }
                }
            }
            s /= 2;
        }
        self.stats.warp_instructions += instr;
        self.stats.issue_cycles_per_sm[self.sm_id] += cycles;
    }

    // --- global memory -----------------------------------------------------------

    /// One global access of the active lanes to the buffer based at
    /// `base`, in one walk: `lane(l)` moves lane `l`'s word and returns its
    /// index, lane by lane in increasing order, and each warp is charged
    /// once its lanes are walked: coalesced half-warps (CC 1.3) or L1
    /// lines (CC 2.x).
    #[inline(always)]
    fn global_access(&mut self, base: u64, store: bool, mut lane: impl FnMut(usize) -> u32) {
        let warps = self.issue_mem();
        let active = self.mask_stack.last().expect("mask stack never empty");
        let mut rules = WarpRules::new(self.device, &mut *self.stats, &mut *self.l1, store, warps);
        let (mut warp_addrs, mut lines) = ([0u64; WARP], [0u64; WARP]);
        for (wi, &word) in active.words().iter().enumerate() {
            for shift in [0, WARP] {
                let bits = (word >> shift) as u32;
                if bits == 0 {
                    continue;
                }
                // Lane addresses in ascending lane order; the warp's first
                // half is a prefix of `half` lanes.
                let mut n = 0;
                walk_bits(bits as u64, wi * 64 + shift, &mut |l| {
                    warp_addrs[n] = lane_addr(base, lane(l));
                    n += 1;
                });
                let addrs = &warp_addrs[..n];
                let camping = rules.camping(n, || addrs.iter().all(|&a| a == addrs[0]));
                if rules.fermi {
                    for &line in cc20_warp_lines(addrs, &mut lines) {
                        rules.line(line, camping);
                    }
                } else {
                    let half = (bits & HALF_WARP_BITS).count_ones() as usize;
                    for part in [&addrs[..half], &addrs[half..]] {
                        let (count, bytes) = cc13_half_warp_totals(part);
                        rules.transactions(count, bytes, camping);
                    }
                }
            }
        }
    }

    /// A broadcast global load: every active lane reads `ptr[idx]`, charged
    /// per warp in closed form, exactly as the per-lane load of one address
    /// (see "Broadcast loads" in the module docs).
    fn load_uniform<T: Word>(&mut self, gm: &GlobalMem, ptr: DevicePtr<T>, idx: u32) -> T {
        let warps = self.issue_mem();
        let (base, data) = gm.view(ptr);
        let addr = lane_addr(base, idx);
        let active = self.mask_stack.last().expect("mask stack never empty");
        let mut rules = WarpRules::new(self.device, &mut *self.stats, &mut *self.l1, false, warps);
        // CC 1.3: the size of the one transaction a half-warp of this
        // address issues.
        let segment = (!rules.fermi).then(|| cc13_half_warp_totals(&[addr]).1);
        for w in 0..active.warp_count() {
            let bits = active.warp_bits(w);
            if bits == 0 {
                continue;
            }
            let camping = rules.camping(bits.count_ones() as usize, || true);
            match segment {
                None => rules.line(addr & !127, camping),
                Some(bytes) => {
                    for half in [bits & HALF_WARP_BITS, bits & !HALF_WARP_BITS] {
                        if half != 0 {
                            rules.transactions(1, bytes, camping);
                        }
                    }
                }
            }
        }
        load_at(data, ptr.id, idx as usize)
    }

    /// Global load: one buffer lookup, then `each(lane, ptr[idx(lane)])`
    /// over the active lanes in the access's one walk (`idx(lane)` runs
    /// just before `each` of the same lane).
    fn load<T: Word>(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<T>,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, T),
    ) {
        let (base, data) = gm.view(ptr);
        self.global_access(base, false, |l| {
            let i = idx(l);
            each(l, load_at(data, ptr.id, i as usize));
            i
        });
    }

    /// Global store: `ptr[idx(lane)] = val(lane)` over the active lanes in
    /// the access's one walk (lane order resolves same-address races, and
    /// orders a shadow arena's log).
    fn store<T: Word>(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<T>,
        mut idx: impl FnMut(usize) -> u32,
        mut val: impl FnMut(usize) -> T,
    ) {
        let (base, data, log) = gm.view_mut(ptr);
        self.global_access(base, true, |l| {
            let i = idx(l);
            store_at(data, log, ptr.id, i, val(l));
            i
        });
    }

    /// Texture load: `each(lane, ptr[idx(lane)])` over the active lanes,
    /// in lane order with the texture cache model.
    fn load_tex(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<f32>,
        mut idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, f32),
    ) {
        let warps = self.issue_mem();
        let (base, data) = gm.view(ptr);
        let active = self.mask_stack.last().expect("mask stack never empty");
        let (stats, tex) = (&mut *self.stats, &mut *self.tex);
        let line_bytes = tex.line_bytes() as f64;
        let (mut hits, mut misses) = (0u64, 0u64);
        active.for_each_lane(|lane| {
            let i = idx(lane);
            if tex.access(lane_addr(base, i)) {
                hits += 1;
            } else {
                misses += 1;
                stats.dram_bytes += line_bytes;
            }
            each(lane, load_at(data, ptr.id, i as usize));
        });
        stats.tex_hits += hits as f64;
        stats.tex_misses += misses as f64;
        stats.ld_transactions += misses as f64;
        let total = (hits + misses).max(1) as f64;
        let weight = 0.35 + 0.65 * misses as f64 / total;
        stats.mem_warp_instructions += warps as f64 * weight;
    }

    fn ld_global<T: PoolItem + Word>(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<T>,
        idx: &Reg<u32>,
    ) -> Reg<T> {
        let idx = self.view(idx);
        let mut out = T::take(idx.len() + 1);
        self.load(gm, ptr, |l| idx[l], |l, v| out[l] = v);
        Reg(out)
    }

    fn st_global<T: PoolItem + Word>(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<T>,
        idx: &Reg<u32>,
        val: &Reg<T>,
    ) {
        let (idx, val) = (self.view(idx), self.view(val));
        self.store(gm, ptr, |l| idx[l], |l| val[l]);
    }

    /// Global load, f32.
    pub fn ld_global_f32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
    ) -> Reg<f32> {
        self.ld_global(gm, ptr, idx)
    }

    /// Global load, u32.
    pub fn ld_global_u32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<u32>,
        idx: &Reg<u32>,
    ) -> Reg<u32> {
        self.ld_global(gm, ptr, idx)
    }

    /// Uniform (broadcast) global load: every active lane reads `ptr[idx]`.
    pub fn ld_global_f32_uniform(&mut self, gm: &GlobalMem, ptr: DevicePtr<f32>, idx: u32) -> f32 {
        self.load_uniform(gm, ptr, idx)
    }

    /// Uniform (broadcast) global load of a u32 word.
    pub fn ld_global_u32_uniform(&mut self, gm: &GlobalMem, ptr: DevicePtr<u32>, idx: u32) -> u32 {
        self.load_uniform(gm, ptr, idx)
    }

    /// Global store, f32 (lane order resolves same-address races).
    pub fn st_global_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
        val: &Reg<f32>,
    ) {
        self.st_global(gm, ptr, idx, val);
    }

    /// Global store, u32.
    pub fn st_global_u32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<u32>,
        idx: &Reg<u32>,
        val: &Reg<u32>,
    ) {
        self.st_global(gm, ptr, idx, val);
    }

    /// Read-only load through the texture cache (32-byte lines, per-SM).
    ///
    /// Hits return from the on-chip cache at a fraction of DRAM latency, so
    /// the access contributes to the exposed-latency counter in proportion
    /// to its miss ratio (with a floor for the cache's own latency).
    pub fn ld_tex_f32(&mut self, gm: &GlobalMem, ptr: DevicePtr<f32>, idx: &Reg<u32>) -> Reg<f32> {
        let idx = self.view(idx);
        let mut out = f32::take(idx.len() + 1);
        self.load_tex(gm, ptr, |l| idx[l], |l, v| out[l] = v);
        Reg(out)
    }

    /// Atomic `tau[idx] += val` with intra-warp serialization. On devices
    /// without native float atomics (Tesla C1060) the operation is costed
    /// as the CAS-loop emulation the paper alludes to.
    pub fn atomic_add_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: &Reg<u32>,
        val: &Reg<f32>,
    ) {
        let warps = self.issue_mem();
        let base = gm.view(ptr).0;
        let active = self.mask_stack.last().expect("mask stack never empty");
        let (idx, val) = (&idx.0[..active.len()], &val.0[..active.len()]);
        let stats = &mut *self.stats;
        stats.mem_warp_instructions += warps as f64;
        let emu = if self.device.native_float_atomics {
            1.0
        } else {
            self.device.atomic_emulation_factor as f64
        };
        for w in 0..active.warp_count() {
            if !active.warp_any(w) {
                continue;
            }
            let mut addrs = [0u64; WARP];
            let mut n_ops = 0;
            active.for_each_warp_lane(w, |lane| {
                addrs[n_ops] = lane_addr(base, idx[lane]);
                n_ops += 1;
            });
            let (distinct, max_mult) = atomic_replays(&mut addrs[..n_ops]);
            let (n_ops, distinct, max_mult) = (n_ops as f64, distinct as f64, max_mult as f64);
            stats.atomic_ops += n_ops;
            stats.atomic_conflicts += n_ops - distinct;
            // The warp stalls for one serialized round per replay; each
            // round costs the device's atomic latency (scaled by the CAS
            // emulation factor on CC 1.x).
            stats.issue_cycles_per_sm[self.sm_id] +=
                max_mult * self.device.atomic_cycles as f64 * emu;
            // Each distinct address is a read-modify-write at the memory
            // partition: one 32B read + one 32B write.
            stats.dram_bytes += distinct * 64.0 * emu;
            stats.st_transactions += distinct * emu;
        }
        gm.atomic_add_f32_lanes(ptr, active, idx, val);
    }

    // --- device RNG -------------------------------------------------------------

    /// Park–Miller minimal-standard LCG step, state in registers — the
    /// "device function instead of CURAND" of Table II, version 3 (the same
    /// generator ACOTSP's sequential code uses). Costed as the standard
    /// division-free implementation (Schrage / `__umulhi` folding: a wide
    /// multiply plus a few ALU ops), not a hardware modulo.
    pub fn lcg_next_f32(&mut self, state: &mut Reg<u32>) -> Reg<f32> {
        // s = s * 16807 mod (2^31 - 1); r = s / (2^31 - 1).
        let state = &mut state.0[..self.active().len()];
        self.lane_pass(Tally::NONE.draws(1)).reg(|l| pm_draw(&mut state[l]))
    }

    /// CURAND-style draw: per-thread generator state lives in *global*
    /// memory (XORWOW state is 48 bytes), so every draw pays state loads
    /// and stores — the overhead version 3 of Table II removes.
    ///
    /// `states` must hold `12 * total_threads` words (12 words = 48 bytes).
    pub fn curand_next_f32(&mut self, gm: &mut GlobalMem, states: DevicePtr<u32>) -> Reg<f32> {
        thread_local! {
            static TALLY: Memo<Tally> = const { Cell::new(None) };
        }
        let first = self.block_idx * self.block_dim;
        let out = TALLY.with(|memo| {
            crate::lane_pass!(self, memo, |pass| {
                let a = pass.alu();
                // State words `12 * gtid + k`, k < 3 (the rest ride along in
                // the same transactions); the stores reuse the index
                // registers.
                let (twelve, one, two) = (a.mov(12), a.mov(1), a.mov(2));
                let base = &pass.reg(|l| a.imul(a.iadd(first, l as u32), twelve));
                let word = |k: u32| move |l: usize| base.lane(l).wrapping_add(k);
                let [mut x0, mut x1, mut x2] = [0; 3].map(|_| pass.reg(|_| 0u32));
                pass.ld_global_u32(gm, states, word(0), |l, v| x0.set_lane(l, v));
                let idx = |k| move |l| a.iadd(base.lane(l), k);
                pass.ld_global_u32(gm, states, idx(one), |l, v| x1.set_lane(l, v));
                pass.ld_global_u32(gm, states, idx(two), |l, v| x2.set_lane(l, v));
                let out = pass.reg(|l| {
                    let rot = a.ior(a.ishl(x1.lane(l), 13), a.ishr(x1.lane(l), 19));
                    let x = a.ixor(a.ixor(x0.lane(l), rot), a.imul(x2.lane(l), 0x9E37_79B9));
                    let x = a.select(a.ueq(x, 0), 0x1234_5678, x);
                    let x = a.ixor(x, a.ishl(x, 13));
                    let x = a.ixor(x, a.ishr(x, 17));
                    let x = a.ixor(x, a.ishl(x, 5));
                    // XORWOW's sequence bookkeeping, which the three words
                    // kept here do not model: the Weyl counter's add, its
                    // add into the output and the state-offset update.
                    a.charge(Op::IAlu, 3);
                    x0.set_lane(l, x);
                    a.fmul(a.u2f(a.ishr(x, 8)), 1.0 / (1u32 << 24) as f32)
                });
                for (k, x) in [&x0, &x1, &x2].into_iter().enumerate() {
                    pass.st_global_u32(gm, states, word(k as u32), |l| x.lane(l));
                }
                out
            })
        });
        self.stats.rng_calls += self.active().count() as f64;
        out
    }
}

/// One slot of a [`BlockCtx::sh_tree`]'s `K` arrays, as its `take`
/// predicate sees it: word `k` is array `k`'s word at the slot.
#[derive(Clone, Copy)]
pub struct TreeSlot<'w, const K: usize> {
    words: &'w [u32],
    at: [usize; K],
}

impl<const K: usize> TreeSlot<'static, K> {
    /// A slot of zero words for a tree over `slots`, which
    /// [`sh_tree!`](crate::sh_tree) counts a `take` predicate on.
    pub fn probe(_: &[ShPtr<u32>; K]) -> Self {
        TreeSlot { words: &[0], at: [0; K] }
    }
}

impl<const K: usize> TreeSlot<'_, K> {
    /// Array `k`'s word at this slot.
    #[inline]
    pub fn word(self, k: usize) -> u32 {
        self.words[self.at[k]]
    }

    /// Array `k`'s word at this slot, as an f32.
    #[inline]
    pub fn f32(self, k: usize) -> f32 {
        f32::from_bits(self.word(k))
    }
}

/// The memory instructions of a lane pass ([`BlockCtx::lane_pass`]): each
/// method charges and models one instruction exactly as the [`BlockCtx`]
/// op of the same name, over the active lanes in lane order, but takes
/// its per-lane indices and values as closures instead of registers. Its
/// arithmetic is [`Run`].
pub struct LanePass<'p, 'a>(&'p mut BlockCtx<'a>);

impl Pass for LanePass<'_, '_> {
    type Alu = Run;

    #[inline(always)]
    fn alu(&self) -> Run {
        Run
    }

    fn reg<T: PoolItem>(&self, f: impl FnMut(usize) -> T) -> Reg<T> {
        self.0.map_lanes(f)
    }

    fn repeat(&mut self, trips: u32, mut body: impl FnMut(&mut Self, u32)) {
        for i in 0..trips {
            body(self, i);
        }
    }

    fn lanes(&mut self, lanes: impl IntoIterator<Item = usize>, mut f: impl FnMut(usize)) {
        for l in lanes {
            debug_assert!(self.0.active().get(l), "lane {l} is not active");
            f(l);
        }
    }

    fn ld_f32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<f32>,
        texture: bool,
        idx: impl FnMut(usize) -> u32,
        each: impl FnMut(usize, f32),
    ) {
        if texture {
            self.0.load_tex(gm, ptr, idx, each);
        } else {
            self.0.load(gm, ptr, idx, each);
        }
    }

    fn ld_global_u32(
        &mut self,
        gm: &GlobalMem,
        ptr: DevicePtr<u32>,
        idx: impl FnMut(usize) -> u32,
        each: impl FnMut(usize, u32),
    ) {
        self.0.load(gm, ptr, idx, each);
    }

    fn st_global_f32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<f32>,
        idx: impl FnMut(usize) -> u32,
        val: impl FnMut(usize) -> f32,
    ) {
        self.0.store(gm, ptr, idx, val);
    }

    fn st_global_u32(
        &mut self,
        gm: &mut GlobalMem,
        ptr: DevicePtr<u32>,
        idx: impl FnMut(usize) -> u32,
        val: impl FnMut(usize) -> u32,
    ) {
        self.0.store(gm, ptr, idx, val);
    }

    fn sh_ld<T>(
        &mut self,
        ptr: ShPtr<T>,
        idx: impl FnMut(usize) -> u32,
        mut each: impl FnMut(usize, u32),
    ) {
        self.0.shared_access(ptr, idx, |sh, l, w| each(l, sh.load(w)));
    }

    fn sh_st<T>(
        &mut self,
        ptr: ShPtr<T>,
        idx: impl FnMut(usize) -> u32,
        mut bits: impl FnMut(usize) -> u32,
    ) {
        self.0.shared_access(ptr, idx, |sh, l, w| sh.store(w, bits(l)));
    }

    /// `sh_st(ptr, |lane| lane, bits)` without walking the words: a
    /// conflict group's active lanes hit distinct words spanning less than
    /// the group, so with at least a group's worth of banks nothing replays.
    fn sh_st_lanes<T>(&mut self, ptr: ShPtr<T>, mut bits: impl FnMut(usize) -> u32) {
        let ctx = &mut *self.0;
        let group = if ctx.device.compute_capability.is_fermi() { WARP } else { WARP / 2 };
        if (ctx.device.shared_banks as usize) < group {
            return self.sh_st(ptr, |l| l as u32, bits);
        }
        ctx.charge(Op::Shared, 1);
        let active = ctx.mask_stack.last().expect("mask stack never empty");
        ctx.stats.shared_accesses += active.count() as f64;
        let slots = ctx.shared.slots_mut(ptr, active.len());
        active.for_each_lane(|l| slots[l] = bits(l));
    }
}

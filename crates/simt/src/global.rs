//! Simulated device (global) memory.
//!
//! A [`GlobalMem`] is an arena of typed buffers laid out in a single
//! virtual address space with 256-byte base alignment — the alignment
//! `cudaMalloc` guarantees, which the coalescing model depends on.
//! Element size is 4 bytes throughout (`f32`/`u32`/`i32`), matching the
//! paper's data structures ("Notice that these accesses are 4 bytes each",
//! Section IV-B).

use std::marker::PhantomData;
use std::sync::Arc;

use crate::mask::Mask;

/// Typed handle to a device buffer. `Copy`, so kernels capture it freely.
pub struct DevicePtr<T> {
    pub(crate) id: u32,
    _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for DevicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevicePtr<T> {}
impl<T> std::fmt::Debug for DevicePtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DevicePtr#{}", self.id)
    }
}

/// Buffer payload. The vectors sit behind [`Arc`] so a shadow fork is a
/// handle copy, not a data copy: a shadow that never writes a buffer
/// shares the base arena's allocation, and the first store into a buffer
/// ([`Arc::make_mut`]) is what pays for the copy — copy-on-write at
/// buffer granularity.
#[derive(Clone)]
pub(crate) enum Data {
    F32(Arc<Vec<f32>>),
    U32(Arc<Vec<u32>>),
}

/// An element type a buffer can hold (4 bytes each). Lets the typed
/// accessors below be written once for both payloads.
pub(crate) trait Word: Copy + 'static {
    /// Type name in OOB messages.
    const NAME: &'static str;
    /// The payload, given the typed handle guarantees the variant.
    fn data(d: &Data) -> &Arc<Vec<Self>>;
    /// Mutable payload.
    fn data_mut(d: &mut Data) -> &mut Arc<Vec<Self>>;
    /// The log record of a plain store.
    fn store_op(id: u32, idx: u32, val: Self) -> LogOp;
}

impl Word for f32 {
    const NAME: &'static str = "f32";
    fn data(d: &Data) -> &Arc<Vec<f32>> {
        match d {
            Data::F32(v) => v,
            Data::U32(_) => unreachable!("typed handle guarantees the variant"),
        }
    }
    fn data_mut(d: &mut Data) -> &mut Arc<Vec<f32>> {
        match d {
            Data::F32(v) => v,
            Data::U32(_) => unreachable!("typed handle guarantees the variant"),
        }
    }
    fn store_op(id: u32, idx: u32, val: f32) -> LogOp {
        LogOp::StF32 { id, idx, val }
    }
}

impl Word for u32 {
    const NAME: &'static str = "u32";
    fn data(d: &Data) -> &Arc<Vec<u32>> {
        match d {
            Data::U32(v) => v,
            Data::F32(_) => unreachable!("typed handle guarantees the variant"),
        }
    }
    fn data_mut(d: &mut Data) -> &mut Arc<Vec<u32>> {
        match d {
            Data::U32(v) => v,
            Data::F32(_) => unreachable!("typed handle guarantees the variant"),
        }
    }
    fn store_op(id: u32, idx: u32, val: u32) -> LogOp {
        LogOp::StU32 { id, idx, val }
    }
}

/// The device's out-of-bounds fault (`what` is "load" or "store").
#[cold]
#[inline(never)]
fn oob(what: &str, ty: &str, id: u32, len: usize, idx: usize) -> ! {
    panic!("device OOB {what}: {ty} buffer #{id} has {len} elements, index {idx}")
}

/// Virtual byte address of element `idx` of a buffer based at `base`
/// (elements are 4 bytes).
#[inline(always)]
pub(crate) fn lane_addr(base: u64, idx: u32) -> u64 {
    base + 4 * idx as u64
}

/// Element `idx` of a buffer resolved by [`GlobalMem::view`], with the
/// device's OOB fault.
#[inline(always)]
pub(crate) fn load_at<T: Word>(data: &[T], id: u32, idx: usize) -> T {
    match data.get(idx) {
        Some(&x) => x,
        None => oob("load", T::NAME, id, data.len(), idx),
    }
}

/// Store `val` into element `idx` of a buffer resolved by
/// [`GlobalMem::view_mut`], with the device's OOB fault, logged as a plain
/// store when `log` is a shadow arena's.
#[inline(always)]
pub(crate) fn store_at<T: Word>(
    data: &mut [T],
    log: &mut Option<Vec<LogOp>>,
    id: u32,
    idx: u32,
    val: T,
) {
    let len = data.len();
    match data.get_mut(idx as usize) {
        Some(slot) => *slot = val,
        None => oob("store", T::NAME, id, len, idx as usize),
    }
    if let Some(log) = log {
        log.push(T::store_op(id, idx, val));
    }
}

#[derive(Clone)]
struct Buffer {
    base: u64,
    data: Data,
}

/// One logged device-memory mutation. Parallel launches execute blocks
/// against per-SM-group copy-on-write shadows of memory and then replay
/// the logs onto the real arena in canonical order (see
/// [`crate::launch`]), so the committed state is identical for every
/// host thread count. The log doubles as the shadow's dirty set: a
/// buffer absent from every log was never forked off its `Arc`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogOp {
    /// Plain f32 store.
    StF32 { id: u32, idx: u32, val: f32 },
    /// Plain u32 store.
    StU32 { id: u32, idx: u32, val: u32 },
    /// Atomic float add (replayed as an add, not a store, so deposits
    /// from different SMs accumulate exactly as serial execution would).
    AddF32 { id: u32, idx: u32, val: f32 },
}

/// Device memory arena.
pub struct GlobalMem {
    buffers: Vec<Buffer>,
    next_base: u64,
    /// `Some` on shadow copies: mutations are recorded here as well as
    /// applied, so the launch can commit them onto the real arena.
    log: Option<Vec<LogOp>>,
}

/// `cudaMalloc` base alignment.
const BASE_ALIGN: u64 = 256;

impl Default for GlobalMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalMem {
    /// Empty arena. Base addresses start away from zero so "address 0"
    /// bugs surface loudly.
    pub fn new() -> Self {
        GlobalMem { buffers: Vec::new(), next_base: BASE_ALIGN, log: None }
    }

    /// A logging copy-on-write view of this arena for one SM group of a
    /// parallel launch: the buffer *handles* are cloned (an `Arc` bump
    /// each, no data copies), plus an empty mutation log. A buffer's
    /// contents are only duplicated when the shadow first stores into it,
    /// so a group that dirties a small slice of the arena allocates
    /// proportionally to what it touches, not to the arena size.
    pub(crate) fn fork_shadow(&self) -> GlobalMem {
        GlobalMem {
            buffers: self.buffers.clone(),
            next_base: self.next_base,
            log: Some(Vec::new()),
        }
    }

    /// Drain the mutation log (empty for non-shadow arenas).
    pub(crate) fn take_log(&mut self) -> Vec<LogOp> {
        self.log.take().unwrap_or_default()
    }

    /// Apply a drained log to this arena, in order.
    pub(crate) fn replay(&mut self, ops: &[LogOp]) {
        for &op in ops {
            match op {
                LogOp::StF32 { id, idx, val } => self.raw_store(id, idx as usize, val),
                LogOp::StU32 { id, idx, val } => self.raw_store(id, idx as usize, val),
                LogOp::AddF32 { id, idx, val } => {
                    let old =
                        load_at(self.f32(DevicePtr { id, _pd: PhantomData }), id, idx as usize);
                    self.raw_store(id, idx as usize, old + val);
                }
            }
        }
    }

    fn push(&mut self, bytes: u64, data: Data) -> u32 {
        let id = self.buffers.len() as u32;
        let base = self.next_base;
        self.buffers.push(Buffer { base, data });
        self.next_base = (base + bytes).next_multiple_of(BASE_ALIGN);
        id
    }

    /// Allocate an `f32` buffer of `len` elements, zero-initialised.
    pub fn alloc_f32(&mut self, len: usize) -> DevicePtr<f32> {
        let id = self.push(4 * len as u64, Data::F32(Arc::new(vec![0.0; len])));
        DevicePtr { id, _pd: PhantomData }
    }

    /// Allocate a `u32` buffer of `len` elements, zero-initialised.
    pub fn alloc_u32(&mut self, len: usize) -> DevicePtr<u32> {
        let id = self.push(4 * len as u64, Data::U32(Arc::new(vec![0; len])));
        DevicePtr { id, _pd: PhantomData }
    }

    /// Base address and contents of a buffer: the one lookup a
    /// warp-wide memory op makes (element `i` lives at `base + 4 * i`).
    #[inline]
    pub(crate) fn view<T: Word>(&self, ptr: DevicePtr<T>) -> (u64, &[T]) {
        let buf = &self.buffers[ptr.id as usize];
        (buf.base, T::data(&buf.data))
    }

    /// Base address, writable contents (materialising the copy-on-write
    /// payload) and the shadow log of a buffer: the one lookup a warp-wide
    /// mutation makes. Paying the lookup and `Arc::make_mut` once per op,
    /// not once per lane, keeps the `Arc`-backed buffers from taxing
    /// stores and atomics.
    #[inline]
    pub(crate) fn view_mut<T: Word>(
        &mut self,
        ptr: DevicePtr<T>,
    ) -> (u64, &mut [T], &mut Option<Vec<LogOp>>) {
        let buf = &mut self.buffers[ptr.id as usize];
        (buf.base, Arc::make_mut(T::data_mut(&mut buf.data)).as_mut_slice(), &mut self.log)
    }

    /// Host-side view of an `f32` buffer (like `cudaMemcpy` D→H).
    pub fn f32(&self, ptr: DevicePtr<f32>) -> &[f32] {
        self.view(ptr).1
    }

    /// Host-side mutable view of an `f32` buffer (like `cudaMemcpy` H→D).
    pub fn f32_mut(&mut self, ptr: DevicePtr<f32>) -> &mut [f32] {
        self.view_mut(ptr).1
    }

    /// Host-side view of a `u32` buffer.
    pub fn u32(&self, ptr: DevicePtr<u32>) -> &[u32] {
        self.view(ptr).1
    }

    /// Host-side mutable view of a `u32` buffer.
    pub fn u32_mut(&mut self, ptr: DevicePtr<u32>) -> &mut [u32] {
        self.view_mut(ptr).1
    }

    /// Copy a host slice into a buffer (must match length).
    pub fn write_f32(&mut self, ptr: DevicePtr<f32>, src: &[f32]) {
        let dst = self.f32_mut(ptr);
        assert_eq!(dst.len(), src.len(), "upload length mismatch");
        dst.copy_from_slice(src);
    }

    /// Copy a host slice into a buffer (must match length).
    pub fn write_u32(&mut self, ptr: DevicePtr<u32>, src: &[u32]) {
        let dst = self.u32_mut(ptr);
        assert_eq!(dst.len(), src.len(), "upload length mismatch");
        dst.copy_from_slice(src);
    }

    /// Element count of a buffer.
    pub fn len_f32(&self, ptr: DevicePtr<f32>) -> usize {
        self.f32(ptr).len()
    }

    /// Virtual byte address of element `idx` of a buffer.
    #[cfg(test)]
    fn addr(&self, id: u32, idx: usize) -> u64 {
        lane_addr(self.buffers[id as usize].base, idx as u32)
    }

    #[cfg(test)]
    fn load_f32(&self, ptr: DevicePtr<f32>, idx: usize) -> f32 {
        load_at(self.f32(ptr), ptr.id, idx)
    }

    /// Unlogged single store (log replay).
    fn raw_store<T: Word>(&mut self, id: u32, idx: usize, val: T) {
        let (_, data, _) = self.view_mut(DevicePtr::<T> { id, _pd: PhantomData });
        store_at(data, &mut None, id, idx as u32, val);
    }

    /// Lane-batched simulated `atomicAdd(&buf[idx[l]], val[l])`: applied
    /// immediately (so the owning block can proceed) and logged as an
    /// *add* ([`LogOp::AddF32`]) on shadows, so a parallel launch's commit
    /// accumulates deposits exactly like serial execution.
    pub(crate) fn atomic_add_f32_lanes(
        &mut self,
        ptr: DevicePtr<f32>,
        active: &Mask,
        idx: &[u32],
        val: &[f32],
    ) {
        let (_, v, log) = self.view_mut(ptr);
        let len = v.len();
        active.for_each_lane(|lane| {
            let i = idx[lane] as usize;
            match v.get_mut(i) {
                Some(x) => *x += val[lane],
                None => oob("load", "f32", ptr.id, len, i),
            }
            if let Some(log) = log {
                log.push(LogOp::AddF32 { id: ptr.id, idx: i as u32, val: val[lane] });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut gm = GlobalMem::new();
        let a = gm.alloc_f32(4);
        let b = gm.alloc_u32(3);
        gm.write_f32(a, &[1.0, 2.0, 3.0, 4.0]);
        gm.write_u32(b, &[7, 8, 9]);
        assert_eq!(gm.f32(a), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(gm.u32(b), &[7, 8, 9]);
        assert_eq!(gm.len_f32(a), 4);
    }

    #[test]
    fn buffers_are_aligned_and_disjoint() {
        let mut gm = GlobalMem::new();
        let a = gm.alloc_f32(5); // 20 bytes
        let b = gm.alloc_f32(1);
        let base_a = gm.addr(a.id, 0);
        let base_b = gm.addr(b.id, 0);
        assert_eq!(base_a % 256, 0);
        assert_eq!(base_b % 256, 0);
        assert!(base_b >= base_a + 20);
        assert_eq!(gm.addr(a.id, 3), base_a + 12);
    }

    #[test]
    #[should_panic(expected = "OOB load")]
    fn oob_load_panics() {
        let mut gm = GlobalMem::new();
        let a = gm.alloc_f32(2);
        gm.load_f32(a, 2);
    }

    #[test]
    #[should_panic(expected = "OOB store")]
    fn oob_store_panics() {
        struct StorePastEnd(DevicePtr<u32>);
        impl crate::Kernel for StorePastEnd {
            fn name(&self) -> &'static str {
                "store_past_end"
            }
            fn run_block(&self, ctx: &mut crate::BlockCtx, gm: &mut GlobalMem) {
                let five = ctx.splat_u32(5);
                ctx.st_global_u32(gm, self.0, &five, &five);
            }
        }
        let mut gm = GlobalMem::new();
        let a = gm.alloc_u32(2);
        let (dev, cfg) = (crate::DeviceSpec::tesla_c1060(), crate::LaunchConfig::new(1, 1));
        let _ = crate::launch(&dev, &cfg, &StorePastEnd(a), &mut gm, crate::SimMode::Full);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn upload_length_checked() {
        let mut gm = GlobalMem::new();
        let a = gm.alloc_f32(2);
        gm.write_f32(a, &[1.0]);
    }
}

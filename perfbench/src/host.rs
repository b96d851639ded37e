//! The host's speed. On a shared virtual machine the same code runs up
//! to about 1.7x slower in spells that last from under a second to
//! minutes, one CPU independently of the other. So the benchmark runs on
//! one CPU ([`pin_to_one_cpu`]) and times a fixed reference loop on it
//! right before and after every round of a measured phase and every
//! set-up ([`reference_ms`]); [`scale`] turns a time taken in between
//! into what it would have been on a quiet host. That follows spells that
//! last longer than a round; shorter ones are left to the medians over
//! rounds ([`crate::closed_loop`]).
//!
//! The loop is a small application built from `std` — map inserts and
//! lookups, string formatting, a sort, many allocations — because that
//! slowed down in the host's slow spells as much as the workloads did;
//! tighter loops (an interpreter over a small program, random reads and
//! writes over a small table) slowed down less. It uses nothing from the
//! workspace, so no change to the program can move it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What [`reference_ms`] reads on a quiet host.
pub const QUIET_MS: f64 = 1.25;

/// Timed passes of the reference loop per reading; the fastest counts,
/// so an interrupt or a context switch during one does not.
const REPS: usize = 5;

/// Milliseconds one pass of the reference loop takes right now: the
/// fastest of [`REPS`], after one untimed pass.
pub fn reference_ms() -> f64 {
    std::hint::black_box(reference_loop());
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_loop());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales a time taken between the readings `before_ms`
/// and `after_ms` to a quiet host.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    QUIET_MS * 2.0 / (before_ms + after_ms)
}

/// A CPU set as the kernel's `cpu_set_t` lays it out (1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Call it before any other
/// thread exists so the whole process runs on that CPU. Returns the CPU,
/// or `None` where the kernel refuses (the run then floats, and the
/// reference readings are noisier).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // `allowed`, which lives for the call.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes of `one`.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set == 0).then_some(cpu)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Fill a `BTreeMap` and a `HashMap` of formatted strings, look keys up
/// in both, sort floats, format some.
fn reference_loop() -> u64 {
    let mut x = 42;
    let mut acc = 0u64;
    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    for i in 0..3000u64 {
        let k = xorshift(&mut x) % 10_000;
        tree.insert(k, i);
        hash.insert(k, format!("v{k}"));
    }
    for _ in 0..3000 {
        let k = xorshift(&mut x) % 10_000;
        acc += tree.get(&k).copied().unwrap_or(0);
        acc += hash.get(&k).map_or(0, |s| s.len() as u64);
    }
    let mut floats: Vec<f32> =
        (0..6000).map(|_| (xorshift(&mut x) % 100_000) as f32 * 0.37).collect();
    floats.sort_by(f32::total_cmp);
    acc += floats[3000] as u64;
    let text: String = floats.iter().take(400).map(|f| format!("{f:.2},")).collect();
    acc + text.len() as u64
}

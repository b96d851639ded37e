//! Allocation count of one CPU colony iteration.
//!
//! CPU construction allocates only each tour's own order vector: the
//! visited flags and roulette slots live in one reusable scratch per
//! colony. A counting global allocator pins that for AS under both
//! construction rules, MMAS and ACS. After one warm-up iteration, one
//! more iteration may allocate at most one tour per ant plus a small
//! constant, the same at every instance size. Scratch allocated per ant
//! (two vectors per tour) exceeds that bound.
//!
//! The binary holds a single test, so no other test thread's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aco_gpu::core::cpu::{
    AcsParams, AntColonySystem, AntSystem, MaxMinAntSystem, MmasParams, TourPolicy,
};
use aco_gpu::core::AcoParams;
use aco_gpu::tsp::{self, Tour};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System` verbatim; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

const ANTS: usize = 8;

/// Allocations beyond one tour per ant that one iteration may make: the
/// counts measured when this test was added, before the colonies shared
/// one construction core (AS: its scratch, the solution vector and a new
/// best tour; MMAS and ACS: one best-tour clone).
const SLACK: [(&str, u64); 4] = [("as-nn", 3), ("as-full", 4), ("mmas", 1), ("acs", 1)];

/// Allocator calls of one iteration after a warm-up one, per colony.
fn iteration_allocs(n: usize) -> [(&'static str, u64); 4] {
    let inst = tsp::uniform_random("allocs", n, 1000.0, 3);
    let params = AcoParams::default().nn(10).ants(ANTS).seed(5);
    let mut as_nn = AntSystem::new(&inst, params.clone());
    let mut as_full = AntSystem::new(&inst, params.clone());
    let mut mmas = MaxMinAntSystem::new(&inst, params.clone(), MmasParams::default());
    let mut acs = AntColonySystem::new(&inst, params, AcsParams::default());
    as_nn.iterate(TourPolicy::NearestNeighborList);
    as_full.iterate(TourPolicy::FullProbabilistic);
    mmas.iterate();
    acs.iterate();
    [
        ("as-nn", allocs(|| _ = as_nn.iterate(TourPolicy::NearestNeighborList))),
        ("as-full", allocs(|| _ = as_full.iterate(TourPolicy::FullProbabilistic))),
        ("mmas", allocs(|| _ = mmas.iterate())),
        ("acs", allocs(|| _ = acs.iterate())),
    ]
}

#[test]
fn one_iteration_allocates_only_the_tours() {
    // What building one tour costs the allocator in this profile (debug
    // builds also validate every constructed order).
    let per_tour = allocs(|| drop(Tour::new_unchecked((0..40).collect())));
    for n in [40, 120, 300] {
        for ((label, got), (_, slack)) in iteration_allocs(n).into_iter().zip(SLACK) {
            let bound = ANTS as u64 * per_tour + slack;
            println!("n = {n:3} {label:8} {got:3} allocations (bound {bound})");
            assert!(got <= bound, "n = {n} {label}: {got} allocations > bound {bound}");
        }
    }
}

//! Analytic prices of the CPU colonies' phases under the [`CpuModel`] —
//! the one pricing every CPU colony reports its modeled time with, and
//! the one the engine's `auto` cost model compares backends by.

use aco_localsearch::{LocalSearch, LsScope};

use super::ant_system::model;
use super::counter::{CpuModel, OpCounter};

/// Analytic `(choice, tour, update)` per-iteration milliseconds of a
/// candidate-list colony of `m` ants on `n` cities with candidate depth
/// `nn`.
pub fn cpu_phase_ms(n: usize, m: usize, nn: usize, model: &CpuModel) -> (f64, f64, f64) {
    let nn = nn.min(n.saturating_sub(1)).max(1);
    (
        model.time_ms(&model::choice_counters(n)),
        model.time_ms(&model::nn_tour_counters(n, m, nn)),
        model.time_ms(&model::update_counters(n, m)),
    )
}

/// Rounds the analytic local-search model assumes per pass: candidate
/// scans repeat until the move stream dries up, and a handful of
/// best-improvement rounds is what construction-quality tours take in
/// practice (the engine prices the same constant against a probed GPU
/// kernel round).
pub const LS_ROUNDS_EST: u64 = 6;

/// Analytic cost of one host-side local-search pass: one candidate
/// evaluation is ~6 loads + 6 flops + 3 branches + 4 ALU ops, and a
/// round evaluates every city's candidate set (both directions for
/// 2-opt, three segment lengths for Or-opt).
pub fn cpu_ls_iter_ms(ls: LocalSearch, n: usize, nn: usize, model: &CpuModel) -> f64 {
    let per_city = match ls.per_iteration() {
        LocalSearch::None | LocalSearch::PostPass => return 0.0,
        LocalSearch::TwoOpt => 2 * n.saturating_sub(1),
        LocalSearch::TwoOptNn => 2 * nn,
        LocalSearch::OrOpt => 3 * nn,
    } as u64;
    let evals = LS_ROUNDS_EST * n as u64 * per_city;
    let c = OpCounter {
        loads: 6 * evals,
        flops: 6 * evals,
        branches: 3 * evals,
        alu: 4 * evals,
        ..Default::default()
    };
    model.time_ms(&c)
}

/// Per-iteration local-search cost of a colony of `m` ants: one pass for
/// the iteration best, one per ant for [`LsScope::AllAnts`].
pub fn cpu_ls_colony_ms(
    ls: LocalSearch,
    scope: LsScope,
    n: usize,
    nn: usize,
    m: usize,
    model: &CpuModel,
) -> f64 {
    let passes = match scope {
        LsScope::IterationBest => 1,
        LsScope::AllAnts => m.max(1),
    };
    cpu_ls_iter_ms(ls, n, nn, model) * passes as f64
}

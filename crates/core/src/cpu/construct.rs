//! The core every CPU colony shares: one trail/heuristic structure and
//! one tour construction routine, as ACOTSP serves every variant with one
//! `compute_total_information` and one `neighbour_choose_and_move_to_next`.
//!
//! * [`Trails`] holds `tau`, `eta^β` (computed once, when the colony is
//!   built) and `choice = tau^α · eta^β`, which AS, parallel AS and MMAS
//!   refresh and read. ACS reads `tau · eta^β` directly, since its local
//!   update moves `tau` at every step.
//! * [`TourScratch`] walks one tour: a random start, then one step rule per
//!   city. AS, parallel AS and MMAS step with the random-proportional rule
//!   over the candidate list (argmax fallback) or over every city; ACS
//!   steps with its pseudo-random-proportional rule on the same scratch and
//!   the same roulette.

use aco_simt::rng::PmRng;
use aco_tsp::{NearestNeighborLists, Tour, TspInstance};

use super::ant_system::TourPolicy;
use super::counter::OpCounter;

/// Pheromone `tau`, heuristic `eta^β` and the `choice` matrix the
/// roulettes read, all row-major `n x n` and `f64` like ACOTSP.
pub(crate) struct Trails {
    n: usize,
    pub tau: Vec<f64>,
    /// `(1/d)^β` (`10^β` on zero-length edges), computed once.
    eta_beta: Vec<f64>,
    /// `tau^α · eta^β` as of the last [`Trails::refresh`]; empty before it.
    pub choice: Vec<f64>,
}

impl Trails {
    /// Trails at `tau_init` on every edge of `inst`, with `eta^β` computed.
    pub fn new(inst: &TspInstance, beta: f64, tau_init: f64) -> Self {
        let n = inst.n();
        let mut eta_beta = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let d = inst.dist(i, j);
                let eta: f64 = if d == 0 { 10.0 } else { 1.0 / d as f64 };
                eta_beta.push(eta.powf(beta));
            }
        }
        Trails { n, tau: vec![tau_init; n * n], eta_beta, choice: Vec::new() }
    }

    /// Recompute `choice = tau^α · eta^β` from the current pheromone.
    ///
    /// The host calls `powf` once per cell, since `eta^β` is hoisted. The
    /// counters still charge two `pow` calls per cell: they price ACOTSP's
    /// `compute_total_information`, the paper's CPU baseline, not this
    /// loop, so every modeled millisecond stays the baseline's.
    pub fn refresh(&mut self, alpha: f64, c: &mut OpCounter) {
        self.choice.clear();
        self.choice.extend(self.tau.iter().zip(&self.eta_beta).map(|(t, eb)| t.powf(alpha) * eb));
        let cells = (self.n * self.n) as u64;
        c.pow_calls += 2 * cells;
        c.flops += cells;
        c.loads += 2 * cells;
        c.stores += cells;
        c.alu += cells;
    }

    /// `tau · eta^β` of edge `(i, j)`: ACS's desirability (`α = 1`).
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.tau[i * self.n + j] * self.eta_beta[i * self.n + j]
    }

    /// Evaporate every trail by `(1 - rho)` (Equation 2).
    pub fn evaporate(&mut self, rho: f64, c: &mut OpCounter) {
        let keep = 1.0 - rho;
        for t in self.tau.iter_mut() {
            *t *= keep;
        }
        let cells = (self.n * self.n) as u64;
        c.loads += cells;
        c.stores += cells;
        c.flops += cells;
    }

    /// Deposit `amount` on every edge of `tour`, both directions
    /// (Equations 3–4).
    pub fn deposit(&mut self, tour: &Tour, amount: f64, c: &mut OpCounter) {
        let n = self.n;
        let order = tour.order();
        for k in 0..n {
            let i = order[k] as usize;
            let j = order[(k + 1) % n] as usize;
            self.tau[i * n + j] += amount;
            self.tau[j * n + i] += amount;
        }
        let e = n as u64;
        c.loads += 4 * e;
        c.stores += 2 * e;
        c.flops += 2 * e;
        c.alu += 4 * e;
    }
}

/// Reusable per-ant construction scratch: the visited flags and roulette
/// slots every tour needs. One scratch serves any number of sequential
/// constructions (each resets it, sizing it on first use), so a colony —
/// or one worker thread of a parallel colony — allocates these buffers
/// once instead of once per ant.
#[derive(Debug, Default, Clone)]
pub struct TourScratch {
    visited: Vec<bool>,
    prob: Vec<f64>,
}

impl TourScratch {
    /// Construct one tour under `policy` from the `choice` matrix and the
    /// candidate lists `nn` (the construction AS, parallel AS and MMAS
    /// share). Only the tour's own order vector is allocated.
    pub(crate) fn construct(
        &mut self,
        inst: &TspInstance,
        nn: &NearestNeighborLists,
        choice: &[f64],
        policy: TourPolicy,
        rng: &mut PmRng,
        c: &mut OpCounter,
    ) -> (Tour, u64) {
        let n = inst.n();
        self.walk(inst, rng, c, |cur, visited, prob, rng, c| {
            let row = &choice[cur * n..(cur + 1) * n];
            match policy {
                TourPolicy::FullProbabilistic => step_full(row, visited, prob, rng, c),
                TourPolicy::NearestNeighborList => {
                    step_nn(row, nn.neighbors(cur), visited, prob, rng, c)
                }
            }
        })
    }

    /// Walk one tour of `inst`: a random start city, then `n - 1` moves,
    /// each to the unvisited city `step(cur, visited, prob, rng, c)`
    /// returns (`prob` has `n` slots, as a candidate list holds at most
    /// `n - 1` cities). Returns the tour and its exact length.
    pub(crate) fn walk(
        &mut self,
        inst: &TspInstance,
        rng: &mut PmRng,
        c: &mut OpCounter,
        mut step: impl FnMut(usize, &[bool], &mut [f64], &mut PmRng, &mut OpCounter) -> usize,
    ) -> (Tour, u64) {
        let n = inst.n();
        self.visited.clear();
        self.visited.resize(n, false);
        self.prob.resize(n, 0.0);
        let mut order = Vec::with_capacity(n);

        let start = (rng.next_f64() * n as f64) as usize % n;
        c.rng += 1;
        self.visited[start] = true;
        order.push(start as u32);
        let mut cur = start;
        let mut len = 0u64;

        for _ in 1..n {
            let next = step(cur, &self.visited, &mut self.prob, rng, c);
            debug_assert!(!self.visited[next]);
            self.visited[next] = true;
            order.push(next as u32);
            len += inst.dist(cur, next) as u64;
            cur = next;
            c.alu += 4;
            c.stores += 2;
            c.loads += 1;
        }
        len += inst.dist(cur, start) as u64;
        (Tour::new_unchecked(order), len)
    }
}

/// Write each city's value (0 once visited) into `prob`, in order, and
/// return their sum.
pub(crate) fn gather(
    cities: impl Iterator<Item = usize>,
    visited: &[bool],
    prob: &mut [f64],
    value: impl Fn(usize) -> f64,
) -> f64 {
    let mut sum = 0.0f64;
    for (p, j) in prob.iter_mut().zip(cities) {
        *p = if visited[j] { 0.0 } else { value(j) };
        sum += *p;
    }
    sum
}

/// Index of the first largest value.
pub(crate) fn first_max(values: impl Iterator<Item = f64>) -> usize {
    let mut best = usize::MAX;
    let mut best_v = f64::NEG_INFINITY;
    for (k, v) in values.enumerate() {
        if v > best_v {
            best_v = v;
            best = k;
        }
    }
    best
}

/// The unvisited city of highest `value` (the candidate-list fallback).
pub(crate) fn best_unvisited(visited: &[bool], value: impl Fn(usize) -> f64) -> usize {
    let all = visited.iter().enumerate();
    first_max(all.map(|(j, &seen)| if seen { f64::NEG_INFINITY } else { value(j) }))
}

/// Random-proportional draw over `prob`, whose entries sum to `sum > 0`:
/// the first slot at which the cumulative sum reaches `r = U · sum`.
///
/// `PmRng::next_f64` never returns 0, so `r > 0` and the cumulative sum
/// first reaches `r` on a live slot; and it adds the same terms in the same
/// order as `sum`, so it does reach `r`. The zero-slot guard only catches a
/// float shortfall at the last slot.
pub(crate) fn roulette(prob: &[f64], sum: f64, rng: &mut PmRng, c: &mut OpCounter) -> usize {
    let r = rng.next_f64() * sum;
    c.rng += 1;
    c.flops += 1;
    let mut cum = 0.0f64;
    let mut k = 0usize;
    loop {
        cum += prob[k];
        c.loads += 1;
        c.flops += 1;
        c.branches += 1;
        if cum >= r || k == prob.len() - 1 {
            break;
        }
        k += 1;
    }
    if prob[k] == 0.0 {
        k = prob.iter().position(|&p| p > 0.0).expect("sum > 0 implies a live slot");
    }
    k
}

/// Random-proportional step over the full feasible neighbourhood
/// (ACOTSP's fully probabilistic rule; two passes like the C code).
pub(crate) fn step_full(
    row: &[f64],
    visited: &[bool],
    prob: &mut [f64],
    rng: &mut PmRng,
    c: &mut OpCounter,
) -> usize {
    let n = row.len();
    let sum = gather(0..n, visited, prob, |j| row[j]);
    c.loads += 2 * n as u64;
    c.stores += n as u64;
    c.flops += n as u64;
    c.branches += n as u64;
    c.alu += n as u64;
    debug_assert!(sum > 0.0, "some city must remain feasible");
    roulette(&prob[..n], sum, rng, c)
}

/// Candidate-list step (ACOTSP `neighbour_choose_and_move_to_next`):
/// roulette over the unvisited nearest neighbours `cands`, falling back to
/// the best `choice` city when all candidates are visited.
pub(crate) fn step_nn(
    row: &[f64],
    cands: &[u32],
    visited: &[bool],
    prob: &mut [f64],
    rng: &mut PmRng,
    c: &mut OpCounter,
) -> usize {
    let (n, nn) = (row.len() as u64, cands.len() as u64);
    let sum = gather(cands.iter().map(|&j| j as usize), visited, prob, |j| row[j]);
    c.loads += 3 * nn;
    c.stores += nn;
    c.flops += nn;
    c.branches += nn;
    c.alu += nn;

    if sum <= 0.0 {
        // All candidates visited: deterministic best choice over all
        // cities (the divergent fallback path on the GPU).
        c.loads += 2 * n;
        c.branches += n;
        c.alu += n;
        return best_unvisited(visited, |j| row[j]);
    }
    cands[roulette(&prob[..cands.len()], sum, rng, c)] as usize
}

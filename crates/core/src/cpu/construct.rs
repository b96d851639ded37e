//! The core every CPU colony shares: one trail/heuristic structure and
//! one tour construction routine, as ACOTSP serves every variant with one
//! `compute_total_information` and one `neighbour_choose_and_move_to_next`.
//!
//! * [`Trails`] holds `tau`, `eta^β` (computed once, when the colony is
//!   built) and `tau^α · eta^β` over only the cells one rule reads, which
//!   AS, parallel AS and MMAS refresh: the candidate cells (as ACOTSP's
//!   `compute_nn_list_total_information`) or all `n x n`. ACS reads
//!   `tau · eta^β` directly, since its local update moves `tau` at every step.
//! * [`TourScratch`] walks one tour: a random start, then one step rule per
//!   city. AS, parallel AS and MMAS step with the random-proportional rule
//!   over the candidate list (argmax fallback) or over the unvisited
//!   cities; ACS steps with its pseudo-random-proportional rule on the same
//!   scratch and the same roulette.

use std::borrow::Cow;

use aco_simt::rng::PmRng;
use aco_tsp::{NearestNeighborLists, Tour, TspInstance};

use super::ant_system::TourPolicy;
use super::counter::OpCounter;

/// Pheromone `tau` and heuristic `eta^β`, row-major `n x n` and `f64`
/// like ACOTSP, and the cached `tau^α · eta^β` cells the roulettes read.
pub(crate) struct Trails {
    n: usize,
    alpha: f64,
    /// Pheromone. A write outside [`Trails::evaporate`] and
    /// [`Trails::deposit`] must be followed by a [`Trails::refresh`].
    pub tau: Vec<f64>,
    /// `(1/d)^β` (`10^β` on zero-length edges), computed once.
    eta_beta: Vec<f64>,
    /// `tau^α · eta^β` of the cells `covers` reads: all `n x n`, or
    /// `cells[i * depth + k]` for city `nn.neighbors(i)[k]`.
    cells: Vec<f64>,
    /// The rule `cells` serves; `None` once the pheromone moved since.
    covers: Option<TourPolicy>,
}

/// What one construction reads: its rule and the cells it scans.
pub(crate) struct ChoiceView<'a> {
    trails: &'a Trails,
    nn: &'a NearestNeighborLists,
    policy: TourPolicy,
    pub cells: Cow<'a, [f64]>,
}

impl Trails {
    /// Trails at `tau_init` on every edge of `inst`, with `eta^β` computed.
    pub fn new(inst: &TspInstance, alpha: f64, beta: f64, tau_init: f64) -> Self {
        let n = inst.n();
        let mut eta_beta = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let d = inst.dist(i, j);
                let eta: f64 = if d == 0 { 10.0 } else { 1.0 / d as f64 };
                eta_beta.push(eta.powf(beta));
            }
        }
        Trails { n, alpha, tau: vec![tau_init; n * n], eta_beta, cells: Vec::new(), covers: None }
    }

    /// `tau^α · eta^β` of edge `(i, j)`, bit for bit the cached value.
    #[inline]
    pub fn choice(&self, i: usize, j: usize) -> f64 {
        let cell = i * self.n + j;
        self.tau[cell].powf(self.alpha) * self.eta_beta[cell]
    }

    /// `out`, refilled with the cells a construction under `policy` reads.
    fn fill(&self, policy: TourPolicy, nn: &NearestNeighborLists, mut out: Vec<f64>) -> Vec<f64> {
        out.clear();
        match policy {
            TourPolicy::FullProbabilistic => out
                .extend(self.tau.iter().zip(&self.eta_beta).map(|(t, eb)| t.powf(self.alpha) * eb)),
            TourPolicy::NearestNeighborList => {
                for i in 0..self.n {
                    out.extend(nn.neighbors(i).iter().map(|&j| self.choice(i, j as usize)));
                }
            }
        }
        out
    }

    /// Cache the cells `policy` reads, from the current pheromone.
    ///
    /// The counters charge ACOTSP's `compute_total_information` whatever
    /// the cache holds: two `pow` calls on every one of the `n²` cells.
    /// They price Fig. 4's CPU baseline, not this loop (which calls `powf`
    /// once per cached cell, since `eta^β` is hoisted), so every modeled
    /// millisecond stays the baseline's.
    pub fn refresh(&mut self, policy: TourPolicy, nn: &NearestNeighborLists, c: &mut OpCounter) {
        let cells = std::mem::take(&mut self.cells);
        (self.cells, self.covers) = (self.fill(policy, nn, cells), Some(policy));
        let cells = (self.n * self.n) as u64;
        c.pow_calls += 2 * cells;
        c.flops += cells;
        c.loads += 2 * cells;
        c.stores += cells;
        c.alu += cells;
    }

    /// The view a construction under `policy` reads: the cache when the
    /// last refresh covered `policy` and the pheromone has not moved
    /// since, else cells computed now.
    pub fn view<'a>(&'a self, policy: TourPolicy, nn: &'a NearestNeighborLists) -> ChoiceView<'a> {
        let cells = match self.covers == Some(policy) {
            true => Cow::Borrowed(&self.cells[..]),
            false => Cow::Owned(self.fill(policy, nn, Vec::new())),
        };
        ChoiceView { trails: self, nn, policy, cells }
    }

    /// `tau · eta^β` of edge `(i, j)`: ACS's desirability (`α = 1`).
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.tau[i * self.n + j] * self.eta_beta[i * self.n + j]
    }

    /// Evaporate every trail by `(1 - rho)` (Equation 2).
    pub fn evaporate(&mut self, rho: f64, c: &mut OpCounter) {
        let keep = 1.0 - rho;
        self.covers = None;
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
        self.covers = None;
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

/// Reusable per-ant construction scratch: visited flags, the full
/// roulette's ascending unvisited list and roulette slots. One scratch
/// serves any number of sequential constructions (each resets it, sizing
/// it on first use), so a colony — or one worker thread of a parallel
/// colony — allocates these buffers once instead of once per ant.
#[derive(Debug, Default, Clone)]
pub struct TourScratch {
    visited: Vec<bool>,
    unvisited: Vec<u32>,
    prob: Vec<f64>,
}

impl TourScratch {
    /// Construct one tour under `choice.policy` from its cells and
    /// candidate lists (the construction AS, parallel AS and MMAS share).
    /// Only the tour's own order vector is allocated.
    pub(crate) fn construct(
        &mut self,
        inst: &TspInstance,
        choice: &ChoiceView<'_>,
        rng: &mut PmRng,
        c: &mut OpCounter,
    ) -> (Tour, u64) {
        let (n, depth, cells) = (inst.n(), choice.nn.depth(), &choice.cells[..]);
        let mut unvisited = std::mem::take(&mut self.unvisited);
        unvisited.clear();
        unvisited.extend(0..n as u32);
        let tour = self.walk(inst, rng, c, |cur, visited, prob, rng, c| match choice.policy {
            TourPolicy::FullProbabilistic => {
                unvisited.remove(unvisited.binary_search(&(cur as u32)).expect("just visited"));
                step_full(&cells[cur * n..(cur + 1) * n], &unvisited, prob, rng, c)
            }
            TourPolicy::NearestNeighborList => {
                let vals = &cells[cur * depth..(cur + 1) * depth];
                let fallback = |j| choice.trails.choice(cur, j);
                step_nn(vals, choice.nn.neighbors(cur), visited, prob, rng, c, fallback)
            }
        });
        self.unvisited = unvisited;
        tour
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

/// Write each candidate's value (0 once visited) into `prob`, in order,
/// and return their sum.
pub(crate) fn gather(
    cands: impl Iterator<Item = (usize, f64)>,
    visited: &[bool],
    prob: &mut [f64],
) -> f64 {
    let mut sum = 0.0f64;
    for (p, (j, v)) in prob.iter_mut().zip(cands) {
        *p = if visited[j] { 0.0 } else { v };
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

/// The unvisited city of highest `value` (the candidate-list fallback);
/// `value` is called on unvisited cities only.
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
///
/// Dropping zero slots thus draws the same live slot, as adding `0.0`
/// leaves the sum and every cumulative value bit for bit as they were:
/// the full roulette scans only the unvisited cities.
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
/// (ACOTSP's fully probabilistic rule), scanning the `unvisited` cities
/// of `row` only: it draws the city ACOTSP's scan over all `n` slots
/// draws (see [`roulette`]), and the counters charge that scan's two
/// passes, visited slots included.
pub(crate) fn step_full(
    row: &[f64],
    unvisited: &[u32],
    prob: &mut [f64],
    rng: &mut PmRng,
    c: &mut OpCounter,
) -> usize {
    let n = row.len();
    let live = &mut prob[..unvisited.len()];
    let mut sum = 0.0f64;
    for (p, &j) in live.iter_mut().zip(unvisited) {
        *p = row[j as usize];
        sum += *p;
    }
    c.loads += 2 * n as u64;
    c.stores += n as u64;
    c.flops += n as u64;
    c.branches += n as u64;
    c.alu += n as u64;
    debug_assert!(sum > 0.0, "some city must remain feasible");
    let k = roulette(live, sum, rng, c);
    // The n-slot scan also steps over the visited cities before the drawn one.
    let skipped = (unvisited[k] as usize - k) as u64;
    c.loads += skipped;
    c.flops += skipped;
    c.branches += skipped;
    unvisited[k] as usize
}

/// Candidate-list step (ACOTSP `neighbour_choose_and_move_to_next`):
/// roulette over the unvisited nearest neighbours `cands`, whose values
/// are `vals`, falling back to the unvisited city of highest `value` when
/// all candidates are visited.
pub(crate) fn step_nn(
    vals: &[f64],
    cands: &[u32],
    visited: &[bool],
    prob: &mut [f64],
    rng: &mut PmRng,
    c: &mut OpCounter,
    value: impl Fn(usize) -> f64,
) -> usize {
    let (n, nn) = (visited.len() as u64, cands.len() as u64);
    let sum = gather(cands.iter().map(|&j| j as usize).zip(vals.iter().copied()), visited, prob);
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
        return best_unvisited(visited, value);
    }
    cands[roulette(&prob[..cands.len()], sum, rng, c)] as usize
}

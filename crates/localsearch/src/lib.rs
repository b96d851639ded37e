//! `aco-localsearch` — per-iteration local search for ACO colonies.
//!
//! The paper's construction/pheromone kernels reproduce tour *building*;
//! ACOTSP-grade solvers interleave an improvement step inside every
//! iteration, and the strongest GPU-ACO systems (Skinderowicz 2016, 2020)
//! run that step on the device next to construction. This crate is that
//! subsystem:
//!
//! * [`LocalSearch`] — the strategy the colonies run at each iteration
//!   boundary: [`LocalSearch::TwoOpt`] (full neighbourhood),
//!   [`LocalSearch::TwoOptNn`] (nearest-neighbour-restricted with
//!   don't-look bits, zero-alloc via a reusable [`LsScratch`]),
//!   [`LocalSearch::OrOpt`] (segment relocation), or
//!   [`LocalSearch::PostPass`] (the legacy end-of-run 2-opt polish).
//! * [`LsScope`] — which tours each iteration improves: the
//!   iteration-best ant (default) or the whole colony.
//! * [`cpu`] — the host passes. `TwoOptNn` is implemented as
//!   *best-improvement rounds*: every round scans all awake cities'
//!   candidate moves, applies the single best, and re-activates the four
//!   cities whose edges changed. That round structure is deliberately the
//!   same algorithm the GPU kernels execute, so the two produce
//!   **identical tours** on identical inputs.
//! * [`gpu`] — the simulated-device `two_opt` kernel family
//!   ([`gpu::PosKernel`] → [`gpu::TwoOptProposeKernel`] →
//!   [`gpu::TwoOptSelectKernel`] → [`gpu::TwoOptApplyKernel`], driven by
//!   [`run_two_opt_window`]): one proposed swap per thread, texture-cached
//!   distance reads, shared-memory best-improvement reduction per block.
//!   It improves a *window* of ant rows `(first_ant, num_ants)` — the
//!   iteration best or the whole colony — in one launch per phase, so a
//!   pass costs `O(rounds)` launches whatever the window size. Counters,
//!   modeled times and memory are bit-identical at any host
//!   `exec_threads` count ([`aco_simt::launch_threads`]).
//! * [`oropt`] — the device `or_opt` kernel family: the same windowed
//!   Pos/Propose/Select/Apply shape (sharing the position scatter and
//!   the [`LsRun`] outcome with `two_opt`), first-improvement key
//!   reduction. Both families' scratch is built by the same
//!   `allocate(gm, n, nn, stride, dist, tours, lengths, nn_list)`
//!   signature, sized by the rows of `lengths`.
//!
//! Every pass is deterministic (no RNG) and never worsens a tour, so
//! colonies that apply one keep their bit-identical-at-any-worker-count
//! reporting contracts.

pub mod cpu;
pub mod gpu;
pub mod oropt;

pub use cpu::LsScratch;
pub use gpu::{probe_round_ms, run_two_opt, run_two_opt_window, LsRun, TwoOptDev};
pub use oropt::{probe_or_round_ms, run_or_opt, OrOptDev};

use aco_tsp::{DistanceMatrix, NearestNeighborLists, Tour};

/// A local-search strategy. `Default` is [`LocalSearch::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalSearch {
    /// No local search (the paper's original colonies).
    #[default]
    None,
    /// Full-neighbourhood 2-opt: every round scans all `n - 1` partners
    /// of every awake city. Exhaustive but `O(n²)` per round; host-only
    /// (GPU colonies fall back to a host pass with a device write-back).
    TwoOpt,
    /// Nearest-neighbour-restricted 2-opt with don't-look bits — the
    /// ACOTSP default, and the variant the GPU kernel family executes.
    /// Candidate moves are limited to each city's NN list, so a round is
    /// `O(n · nn)`; reuses [`LsScratch`], allocating nothing when warm.
    TwoOptNn,
    /// Or-opt: relocate segments of 1–3 cities (forward or reversed)
    /// next to a nearest neighbour of the segment head. Catches moves
    /// 2-opt cannot express. GPU colonies run it on the device as the
    /// `or_opt` kernel family ([`oropt`]).
    OrOpt,
    /// No per-iteration work; one `TwoOptNn` polish of the final best
    /// tour, applied by the engine after the run. Select it via
    /// `SolveRequest::local_search`.
    PostPass,
}

impl LocalSearch {
    /// Every variant, in display order.
    pub const ALL: [LocalSearch; 5] = [
        LocalSearch::None,
        LocalSearch::TwoOpt,
        LocalSearch::TwoOptNn,
        LocalSearch::OrOpt,
        LocalSearch::PostPass,
    ];

    /// The strategy a colony runs *inside* its iteration loop.
    /// [`LocalSearch::PostPass`] does no per-iteration work, so it maps
    /// to [`LocalSearch::None`] here; the engine applies its polish after
    /// the run completes.
    pub fn per_iteration(self) -> LocalSearch {
        match self {
            LocalSearch::PostPass => LocalSearch::None,
            other => other,
        }
    }

    /// Does this strategy run only as an end-of-run polish?
    pub fn is_post_pass(self) -> bool {
        matches!(self, LocalSearch::PostPass)
    }

    /// Does this strategy do work at iteration boundaries?
    pub fn runs_per_iteration(self) -> bool {
        !matches!(self.per_iteration(), LocalSearch::None)
    }

    /// Stable label for reports and benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            LocalSearch::None => "none",
            LocalSearch::TwoOpt => "2opt",
            LocalSearch::TwoOptNn => "2opt-nn",
            LocalSearch::OrOpt => "or-opt",
            LocalSearch::PostPass => "2opt-post",
        }
    }

    /// Stable discriminant for cache keys (the engine's decision cache
    /// keys on the per-iteration strategy).
    pub fn discriminant(self) -> u8 {
        match self {
            LocalSearch::None => 0,
            LocalSearch::TwoOpt => 1,
            LocalSearch::TwoOptNn => 2,
            LocalSearch::OrOpt => 3,
            LocalSearch::PostPass => 4,
        }
    }

    /// Improve `tour` in place and return the exact length reduction
    /// (`0` for [`LocalSearch::None`]). [`LocalSearch::PostPass`] runs
    /// the `TwoOptNn` pass — this is the entry point the engine's
    /// end-of-run polish calls. Never worsens; preserves the permutation
    /// property.
    pub fn improve(
        self,
        tour: &mut Tour,
        matrix: &DistanceMatrix,
        nn: &NearestNeighborLists,
        scratch: &mut LsScratch,
    ) -> u64 {
        let before = tour.length(matrix);
        match self {
            LocalSearch::None => return 0,
            LocalSearch::TwoOpt => {
                cpu::two_opt_full(tour, matrix, scratch);
            }
            LocalSearch::TwoOptNn | LocalSearch::PostPass => {
                cpu::two_opt_nn(tour, matrix, nn, scratch);
            }
            LocalSearch::OrOpt => {
                cpu::or_opt(tour, matrix, nn, scratch);
            }
        }
        let after = tour.length(matrix);
        debug_assert!(tour.is_valid());
        debug_assert!(after <= before, "local search must never worsen");
        before.saturating_sub(after)
    }
}

impl std::fmt::Display for LocalSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which tours a per-iteration strategy improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LsScope {
    /// Only the iteration-best ant's tour (ACOTSP's cheap default: the
    /// improved tour still steers the pheromone update).
    #[default]
    IterationBest,
    /// Every ant's tour — the full ACOTSP hybrid. `m×` the cost.
    AllAnts,
}

impl LsScope {
    /// Stable label for reports and benchmarks.
    pub fn label(self) -> &'static str {
        match self {
            LsScope::IterationBest => "iter-best",
            LsScope::AllAnts => "all-ants",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aco_tsp::uniform_random;
    use rand::SeedableRng;

    #[test]
    fn every_variant_never_worsens_and_stays_valid() {
        let inst = uniform_random("ls", 48, 900.0, 7);
        let nn = NearestNeighborLists::build(inst.matrix(), 12).unwrap();
        let mut scratch = LsScratch::new();
        for ls in LocalSearch::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let mut tour = Tour::random(48, &mut rng);
            let before = tour.length(inst.matrix());
            let gain = ls.improve(&mut tour, inst.matrix(), &nn, &mut scratch);
            assert!(tour.is_valid(), "{ls}: permutation broken");
            assert_eq!(tour.length(inst.matrix()), before - gain, "{ls}: gain must be exact");
            if ls != LocalSearch::None {
                assert!(gain > 0, "{ls}: a random 48-city tour must be improvable");
            }
        }
    }

    #[test]
    fn per_iteration_mapping_and_labels() {
        assert_eq!(LocalSearch::PostPass.per_iteration(), LocalSearch::None);
        assert_eq!(LocalSearch::TwoOptNn.per_iteration(), LocalSearch::TwoOptNn);
        assert!(LocalSearch::PostPass.is_post_pass());
        assert!(!LocalSearch::PostPass.runs_per_iteration());
        assert!(LocalSearch::OrOpt.runs_per_iteration());
        let mut seen = std::collections::HashSet::new();
        for ls in LocalSearch::ALL {
            assert!(seen.insert(ls.discriminant()), "discriminants must be distinct");
            assert!(!ls.label().is_empty());
        }
        assert_eq!(LsScope::default(), LsScope::IterationBest);
    }
}

//! Kernel event counters.
//!
//! Every simulated instruction, memory transaction, bank conflict, atomic
//! and barrier increments a counter here; the timing model
//! ([`crate::timing`]) turns the counters into milliseconds. Counters are
//! `f64` so block-sampled launches can be extrapolated by a real factor.

/// Event counters for one kernel launch (or the merge of several).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Warp-instructions issued (all classes).
    pub warp_instructions: f64,
    /// Issue cycles accumulated per SM (index = SM id). The busiest SM
    /// bounds compute time.
    pub issue_cycles_per_sm: Vec<f64>,
    /// Bytes actually moved over the DRAM interface (transaction-sized,
    /// so uncoalesced access patterns inflate this above the useful bytes).
    pub dram_bytes: f64,
    /// Global-memory load transactions (after coalescing and caches).
    pub ld_transactions: f64,
    /// Global-memory store transactions.
    pub st_transactions: f64,
    /// Warp-level memory instructions (each exposes latency to hide).
    pub mem_warp_instructions: f64,
    /// Lane-level shared-memory accesses.
    pub shared_accesses: f64,
    /// Extra serialized shared passes caused by bank conflicts.
    pub bank_conflict_extra: f64,
    /// Lane-level atomic operations.
    pub atomic_ops: f64,
    /// Serialized atomic replays (lanes in a warp hitting the same address).
    pub atomic_conflicts: f64,
    /// Warp branches where lanes took both sides (serialized execution).
    pub divergent_branches: f64,
    /// `__syncthreads()` executions (per block).
    pub barriers: f64,
    /// Texture cache hits / misses (lane granularity).
    pub tex_hits: f64,
    pub tex_misses: f64,
    /// Fermi L1 hits / misses (lane granularity).
    pub l1_hits: f64,
    pub l1_misses: f64,
    /// Device RNG draws (lane granularity) — reported because the paper
    /// discusses random-number cost explicitly.
    pub rng_calls: f64,
}

impl KernelStats {
    /// Stats sized for a device with `sm_count` SMs.
    pub fn for_sms(sm_count: usize) -> Self {
        KernelStats { issue_cycles_per_sm: vec![0.0; sm_count], ..Default::default() }
    }

    /// The busiest SM's issue cycles (bounds compute time).
    pub fn max_sm_cycles(&self) -> f64 {
        self.issue_cycles_per_sm.iter().copied().fold(0.0, f64::max)
    }

    /// Total global transactions (loads + stores).
    pub fn transactions(&self) -> f64 {
        self.ld_transactions + self.st_transactions
    }

    /// Scale every counter by `f` (block-sampling extrapolation).
    pub fn scale(&mut self, f: f64) {
        let KernelStats {
            warp_instructions,
            issue_cycles_per_sm,
            dram_bytes,
            ld_transactions,
            st_transactions,
            mem_warp_instructions,
            shared_accesses,
            bank_conflict_extra,
            atomic_ops,
            atomic_conflicts,
            divergent_branches,
            barriers,
            tex_hits,
            tex_misses,
            l1_hits,
            l1_misses,
            rng_calls,
        } = self;
        *warp_instructions *= f;
        issue_cycles_per_sm.iter_mut().for_each(|c| *c *= f);
        *dram_bytes *= f;
        *ld_transactions *= f;
        *st_transactions *= f;
        *mem_warp_instructions *= f;
        *shared_accesses *= f;
        *bank_conflict_extra *= f;
        *atomic_ops *= f;
        *atomic_conflicts *= f;
        *divergent_branches *= f;
        *barriers *= f;
        *tex_hits *= f;
        *tex_misses *= f;
        *l1_hits *= f;
        *l1_misses *= f;
        *rng_calls *= f;
    }

    /// Accumulate another launch's counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        if self.issue_cycles_per_sm.len() < other.issue_cycles_per_sm.len() {
            self.issue_cycles_per_sm.resize(other.issue_cycles_per_sm.len(), 0.0);
        }
        for (a, b) in self.issue_cycles_per_sm.iter_mut().zip(other.issue_cycles_per_sm.iter()) {
            *a += b;
        }
        self.warp_instructions += other.warp_instructions;
        self.dram_bytes += other.dram_bytes;
        self.ld_transactions += other.ld_transactions;
        self.st_transactions += other.st_transactions;
        self.mem_warp_instructions += other.mem_warp_instructions;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_extra += other.bank_conflict_extra;
        self.atomic_ops += other.atomic_ops;
        self.atomic_conflicts += other.atomic_conflicts;
        self.divergent_branches += other.divergent_branches;
        self.barriers += other.barriers;
        self.tex_hits += other.tex_hits;
        self.tex_misses += other.tex_misses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.rng_calls += other.rng_calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelStats {
        let mut s = KernelStats::for_sms(2);
        s.warp_instructions = 10.0;
        s.issue_cycles_per_sm[0] = 40.0;
        s.issue_cycles_per_sm[1] = 24.0;
        s.dram_bytes = 256.0;
        s.ld_transactions = 4.0;
        s.st_transactions = 2.0;
        s
    }

    #[test]
    fn max_and_totals() {
        let s = sample();
        assert_eq!(s.max_sm_cycles(), 40.0);
        assert_eq!(s.transactions(), 6.0);
    }

    #[test]
    fn scaling_scales_everything() {
        let mut s = sample();
        s.scale(2.0);
        assert_eq!(s.warp_instructions, 20.0);
        assert_eq!(s.issue_cycles_per_sm, vec![80.0, 48.0]);
        assert_eq!(s.dram_bytes, 512.0);
    }

    #[test]
    fn merging_adds_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.warp_instructions, 20.0);
        assert_eq!(a.issue_cycles_per_sm, vec![80.0, 48.0]);
        assert_eq!(a.ld_transactions, 8.0);
    }

    #[test]
    fn merge_grows_sm_vector() {
        let mut a = KernelStats::for_sms(1);
        let b = sample();
        a.merge(&b);
        assert_eq!(a.issue_cycles_per_sm.len(), 2);
        assert_eq!(a.issue_cycles_per_sm[1], 24.0);
    }
}

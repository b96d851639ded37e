//! The kernel timing model.
//!
//! Event counters become milliseconds through a three-term roofline:
//!
//! ```text
//! compute_ms = busiest-SM issue cycles / shader clock
//! memory_ms  = DRAM transaction bytes / effective bandwidth
//! latency_ms = warp memory instructions x latency
//!              ------------------------------------  (exposed latency when
//!              SMs x resident warps x shader clock    too few warps hide it)
//!
//! kernel_ms  = max(compute, memory, latency) + launch overhead
//! ```
//!
//! The max() composition is the standard bulk-synchronous GPU model
//! (roofline / Hong-Kim style): a kernel is bound by whichever resource it
//! saturates; the others overlap. Effective bandwidth derates the pin
//! bandwidth by a fixed efficiency factor (DRAM never sustains 100%).

use crate::device::DeviceSpec;
use crate::occupancy::Occupancy;
use crate::stats::KernelStats;

/// Fraction of pin bandwidth a well-behaved kernel can actually sustain
/// (row activation, refresh, read/write turnaround eat the rest).
pub const DRAM_EFFICIENCY: f64 = 0.75;

/// Time estimate for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Issue-throughput bound.
    pub compute_ms: f64,
    /// DRAM bandwidth bound.
    pub memory_ms: f64,
    /// Exposed-latency bound (dominates at low occupancy).
    pub latency_ms: f64,
    /// Fixed driver/launch overhead.
    pub overhead_ms: f64,
    /// `max(compute, memory, latency) + overhead`.
    pub total_ms: f64,
}

impl KernelTime {
    /// Which bound produced `total_ms` (for reports).
    pub fn bound(&self) -> &'static str {
        if self.compute_ms >= self.memory_ms && self.compute_ms >= self.latency_ms {
            "compute"
        } else if self.memory_ms >= self.latency_ms {
            "memory"
        } else {
            "latency"
        }
    }

    /// Sequential composition of two kernel times (sums every component).
    pub fn then(&self, other: &KernelTime) -> KernelTime {
        KernelTime {
            compute_ms: self.compute_ms + other.compute_ms,
            memory_ms: self.memory_ms + other.memory_ms,
            latency_ms: self.latency_ms + other.latency_ms,
            overhead_ms: self.overhead_ms + other.overhead_ms,
            total_ms: self.total_ms + other.total_ms,
        }
    }
}

/// Convert counters to time for a launch with the given occupancy.
pub fn estimate(dev: &DeviceSpec, occ: &Occupancy, stats: &KernelStats) -> KernelTime {
    let cycles_per_ms = dev.cycles_per_ms();

    let compute_ms = stats.max_sm_cycles() / cycles_per_ms;

    let eff_bw_bytes_per_ms = dev.mem_bandwidth_gbps * DRAM_EFFICIENCY * 1e6; // GB/s -> bytes/ms
    let memory_ms = stats.dram_bytes / eff_bw_bytes_per_ms;

    let resident_warps = occ.active_warps_per_sm.max(1) as f64;
    // Latency is hidden by the warps resident on the SMs that actually
    // hold blocks; idle SMs contribute nothing (small grids expose it).
    let busy_sms = occ.busy_sms.max(1) as f64;
    let latency_ms = stats.mem_warp_instructions * dev.mem_latency_cycles as f64
        / (busy_sms * resident_warps * cycles_per_ms);

    let overhead_ms = dev.launch_overhead_us / 1000.0;
    let total_ms = compute_ms.max(memory_ms).max(latency_ms) + overhead_ms;
    KernelTime { compute_ms, memory_ms, latency_ms, overhead_ms, total_ms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{occupancy, Occupancy};

    fn occ_full(dev: &DeviceSpec) -> Occupancy {
        occupancy(dev, 256, 16, 0, 100_000)
    }

    #[test]
    fn compute_bound_kernel() {
        let dev = DeviceSpec::tesla_c1060();
        let mut s = KernelStats::for_sms(dev.sm_count as usize);
        s.issue_cycles_per_sm[0] = 1_296_000.0; // exactly 1 ms on SM 0
        let t = estimate(&dev, &occ_full(&dev), &s);
        assert!((t.compute_ms - 1.0).abs() < 1e-9);
        assert_eq!(t.bound(), "compute");
        assert!(t.total_ms > 1.0); // + overhead
    }

    #[test]
    fn memory_bound_kernel() {
        let dev = DeviceSpec::tesla_c1060();
        let mut s = KernelStats::for_sms(dev.sm_count as usize);
        // 76.5 MB at 76.5 GB/s effective = 1 ms.
        s.dram_bytes = dev.mem_bandwidth_gbps * DRAM_EFFICIENCY * 1e6;
        let t = estimate(&dev, &occ_full(&dev), &s);
        assert!((t.memory_ms - 1.0).abs() < 1e-9);
        assert_eq!(t.bound(), "memory");
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let dev = DeviceSpec::tesla_c1060();
        let mut s = KernelStats::for_sms(dev.sm_count as usize);
        s.mem_warp_instructions = 10_000.0;
        let low = occupancy(&dev, 32, 16, 0, 1); // 1 warp resident
        let high = occ_full(&dev);
        let t_low = estimate(&dev, &low, &s);
        let t_high = estimate(&dev, &high, &s);
        assert!(t_low.latency_ms > t_high.latency_ms * 10.0);
    }

    #[test]
    fn overhead_floors_every_launch() {
        let dev = DeviceSpec::tesla_m2050();
        let s = KernelStats::for_sms(dev.sm_count as usize);
        let t = estimate(&dev, &occ_full(&dev), &s);
        assert!((t.total_ms - dev.launch_overhead_us / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn then_accumulates() {
        let a = KernelTime {
            compute_ms: 1.0,
            memory_ms: 0.5,
            latency_ms: 0.1,
            overhead_ms: 0.007,
            total_ms: 1.007,
        };
        let b = a.then(&a);
        assert!((b.total_ms - 2.014).abs() < 1e-12);
        assert!((b.compute_ms - 2.0).abs() < 1e-12);
    }
}

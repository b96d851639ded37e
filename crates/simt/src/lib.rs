//! A deterministic SIMT (CUDA-like) execution simulator and performance
//! model.
//!
//! This crate substitutes for the two NVIDIA Tesla GPUs of Cecilia et al.,
//! *"Parallelization Strategies for Ant Colony Optimisation on GPUs"*
//! (IPDPS Workshops 2011). Kernels are ordinary Rust written in a
//! block-wide SPMD style against [`block::BlockCtx`]; the simulator
//! executes them *functionally* (real values, real control flow) while
//! counting the microarchitectural events the paper's analysis is phrased
//! in terms of:
//!
//! * warp-granular instruction issue (divergent branches pay both sides),
//! * global-memory coalescing (CC 1.3 half-warp segments vs Fermi 128-byte
//!   L1 lines),
//! * shared-memory bank conflicts (16 banks/half-warp vs 32 banks/warp),
//! * atomic serialization, with CAS-loop emulation of float atomics on
//!   CC 1.x (the Tesla C1060's documented weakness),
//! * texture-cache and L1 behaviour (set-associative LRU),
//! * occupancy (block/warp/register/shared limits) and its effect on
//!   latency hiding.
//!
//! The [`timing`] module converts counters into milliseconds with a
//! documented roofline model; [`launch()`] drives grids of blocks with
//! optional deterministic block sampling for very large launches.
//!
//! ```
//! use aco_simt::prelude::*;
//!
//! struct Scale(DevicePtr<f32>);
//! impl Kernel for Scale {
//!     fn name(&self) -> &'static str { "scale" }
//!     fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
//!         let i = ctx.global_thread_idx();
//!         let x = ctx.ld_global_f32(gm, self.0, &i);
//!         let two = ctx.splat_f32(2.0);
//!         let y = ctx.fmul(&x, &two);
//!         ctx.st_global_f32(gm, self.0, &i, &y);
//!     }
//! }
//!
//! let dev = DeviceSpec::tesla_c1060();
//! let mut gm = GlobalMem::new();
//! let buf = gm.alloc_f32(256);
//! gm.write_f32(buf, &[1.0; 256]);
//! let r = launch(&dev, &LaunchConfig::new(2, 128), &Scale(buf), &mut gm, SimMode::Full).unwrap();
//! assert_eq!(gm.f32(buf)[0], 2.0);
//! assert!(r.time.total_ms > 0.0);
//! ```

pub mod block;
pub mod cache;
pub mod coalesce;
pub mod device;
pub mod global;
pub mod launch;
pub mod mask;
pub mod occupancy;
pub mod pool;
pub mod rng;
pub mod shared;
pub mod stats;
pub mod timing;

pub use block::{BlockCtx, Op, Reg};
pub use device::{ComputeCapability, DeviceSpec};
pub use global::{DevicePtr, GlobalMem};
pub use launch::{launch, launch_threads, Kernel, LaunchConfig, LaunchResult, SimMode};
pub use mask::Mask;
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use shared::ShPtr;
pub use stats::KernelStats;
pub use timing::{estimate, KernelTime};

/// Convenient glob import for kernel authors.
pub mod prelude {
    pub use crate::block::{BlockCtx, Op, Reg};
    pub use crate::device::DeviceSpec;
    pub use crate::global::{DevicePtr, GlobalMem};
    pub use crate::launch::{launch, launch_threads, Kernel, LaunchConfig, LaunchResult, SimMode};
    pub use crate::mask::Mask;
    pub use crate::shared::ShPtr;
    pub use crate::stats::KernelStats;
    pub use crate::timing::KernelTime;
}

/// Errors from launch validation and host-side misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimtError {
    /// The launch configuration violates a device limit.
    BadLaunch(String),
    /// The (simulated) device failed the launch transiently — the
    /// retryable error class fault injection exercises (see
    /// `aco_faults::launch`; real backends would surface driver/ECC
    /// errors here). Distinct from [`SimtError::BadLaunch`], which marks
    /// a misconfigured launch that no retry can fix.
    DeviceFault(String),
}

impl std::fmt::Display for SimtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimtError::BadLaunch(m) => write!(f, "bad launch: {m}"),
            SimtError::DeviceFault(m) => write!(f, "device fault: {m}"),
        }
    }
}

impl std::error::Error for SimtError {}

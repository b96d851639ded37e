//! The kernel-profiling hook: how simulated kernel launches report
//! per-family invocation counts and modeled milliseconds without the
//! SIMT layer knowing about engines or jobs.
//!
//! The launch path (`aco_simt::launch_threads`) calls [`record`] once
//! per launch with the kernel's stable family name and its modeled time.
//! By default that is a single thread-local read and a branch — nothing
//! is installed, nothing is recorded, and standalone colony/bench use
//! pays nothing. A worker that *wants* the data installs a [`KernelSink`]
//! around the solve ([`install`]); the returned [`KernelScope`] guard
//! restores the previous sink on drop, so nesting (e.g. auto-probe
//! launches inside a job) composes.
//!
//! Recording happens on the thread that issued the launch, after any
//! parallel block groups have joined, so it is deterministic and adds no
//! synchronisation to the launch itself.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::KernelFamilySnapshot;
use crate::trace::JobTrace;

/// Modeled-time quanta per millisecond: a family's modeled time is summed
/// as a whole number of 2^-40 ms (about 0.9 fs) quanta, an integer sum
/// that does not depend on the order the launches complete in.
const QUANTA_PER_MS: f64 = (1u64 << 40) as f64;

/// Engine-wide kernel-family aggregate (every job's launches, summed):
/// per family its launches and modeled time in whole 2^-40 ms quanta, so
/// the totals are the same at any worker count.
#[derive(Default)]
pub struct KernelProfiler {
    families: Mutex<BTreeMap<String, (u64, u128)>>,
}

impl KernelProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one launch of `family` costing `ms` modeled time.
    pub fn record(&self, family: &str, ms: f64) {
        let mut map = self.families.lock().expect("profiler lock");
        let e = map.entry(family.to_string()).or_insert((0, 0));
        e.0 += 1;
        e.1 += (ms * QUANTA_PER_MS).round() as u128;
    }

    /// Per-family totals, sorted by family name.
    pub fn snapshot(&self) -> Vec<KernelFamilySnapshot> {
        self.families
            .lock()
            .expect("profiler lock")
            .iter()
            .map(|(family, &(invocations, quanta))| KernelFamilySnapshot {
                family: family.clone(),
                invocations,
                modeled_ms: quanta as f64 / QUANTA_PER_MS,
            })
            .collect()
    }
}

impl std::fmt::Debug for KernelProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelProfiler")
            .field("families", &self.families.lock().expect("profiler lock").len())
            .finish()
    }
}

/// Where a thread's kernel launches report to while a scope is active.
#[derive(Clone, Default)]
pub struct KernelSink {
    /// Per-job trace to credit launches to (the job's `JobTimeline`
    /// kernel section).
    pub trace: Option<Arc<JobTrace>>,
    /// Engine-wide aggregate.
    pub profiler: Option<Arc<KernelProfiler>>,
}

thread_local! {
    static SINK: RefCell<Option<KernelSink>> = const { RefCell::new(None) };
}

/// RAII guard for an installed [`KernelSink`]; restores the previously
/// installed sink (if any) on drop.
#[must_use = "dropping the scope immediately uninstalls the sink"]
pub struct KernelScope {
    previous: Option<KernelSink>,
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        SINK.with(|s| *s.borrow_mut() = self.previous.take());
    }
}

/// Install `sink` as this thread's kernel-launch recorder until the
/// returned guard drops.
pub fn install(sink: KernelSink) -> KernelScope {
    let previous = SINK.with(|s| s.borrow_mut().replace(sink));
    KernelScope { previous }
}

/// Report one kernel launch (called by the SIMT launch path). `family`
/// is the kernel's stable name; `ms` its modeled total time. A no-op —
/// one thread-local read — unless a sink is installed on this thread.
#[inline]
pub fn record(family: &'static str, ms: f64) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            if let Some(trace) = &sink.trace {
                trace.record_kernel(family, ms);
            }
            if let Some(profiler) = &sink.profiler {
                profiler.record(family, ms);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_without_a_sink_is_a_noop() {
        record("orphan", 1.0); // must not panic or leak anywhere
    }

    #[test]
    fn scope_installs_and_restores_nested_sinks() {
        let outer_prof = Arc::new(KernelProfiler::new());
        let inner_prof = Arc::new(KernelProfiler::new());
        {
            let _outer =
                install(KernelSink { trace: None, profiler: Some(Arc::clone(&outer_prof)) });
            record("a", 1.0);
            {
                let _inner =
                    install(KernelSink { trace: None, profiler: Some(Arc::clone(&inner_prof)) });
                record("b", 2.0);
            }
            record("a", 1.0);
        }
        record("c", 9.0); // after all scopes: dropped
        let outer = outer_prof.snapshot();
        assert_eq!(outer.len(), 1);
        assert_eq!((outer[0].invocations, outer[0].modeled_ms), (2, 2.0));
        let inner = inner_prof.snapshot();
        assert_eq!(inner[0].family, "b");
        assert_eq!(inner[0].invocations, 1);
    }

    #[test]
    fn family_sums_do_not_depend_on_launch_order() {
        // Summed as f64 in these two orders, these differ in the last bit.
        let ms = [0.026336, 1.674938, 0.518708, 0.468662, 1.99129, 4.70263507522448e-10];
        let forward = KernelProfiler::new();
        ms.iter().for_each(|&t| forward.record("k", t));
        let backward = KernelProfiler::new();
        ms.iter().rev().for_each(|&t| backward.record("k", t));
        let (f, b) = (forward.snapshot(), backward.snapshot());
        assert_eq!(f[0].modeled_ms.to_bits(), b[0].modeled_ms.to_bits());
        assert!((f[0].modeled_ms - ms.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn sink_feeds_trace_and_profiler_together() {
        let trace = Arc::new(JobTrace::new(3, 4));
        let prof = Arc::new(KernelProfiler::new());
        {
            let _scope = install(KernelSink {
                trace: Some(Arc::clone(&trace)),
                profiler: Some(Arc::clone(&prof)),
            });
            record("tour", 5.0);
            record("tour", 5.0);
        }
        assert_eq!(trace.snapshot().kernels[0].invocations, 2);
        assert_eq!(prof.snapshot()[0].modeled_ms, 10.0);
    }
}

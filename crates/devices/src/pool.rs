//! The device pool: placement, admission, and telemetry.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use aco_simt::DeviceSpec;

use crate::profile::{DeviceModel, DeviceProfile};

/// Index of a device within its pool (stable for the pool's lifetime;
/// also the identifier reports and progress events carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Where a job may run. `Any` is the default; `Preferred` biases the
/// placement toward one device but falls back when that device is
/// markedly worse (or incompatible); `Pinned` is honoured exactly or
/// rejected with a typed [`PlacementError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceAffinity {
    /// Any compatible device; the pool picks.
    #[default]
    Any,
    /// Use this device unless its predicted completion is more than
    /// `PREFERRED_SLACK` (1.5)× the best compatible device's (or it is
    /// incompatible), in which case place as `Any`.
    Preferred(DeviceId),
    /// Exactly this device, or a typed rejection.
    Pinned(DeviceId),
}

/// How much worse (multiplicatively) a `Preferred` device's predicted
/// completion may be before the pool overrides the preference.
pub const PREFERRED_SLACK: f64 = 1.5;

/// Health of one pool device, as judged by the deterministic health
/// ledger (driven by `note_outcome` calls in the submission sequence —
/// never by execution timing, so health-aware placement keeps the
/// pool's worker-count determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HealthState {
    /// No recent failures.
    #[default]
    Healthy,
    /// At least [`HealthPolicy::degrade_after`] consecutive failures:
    /// still eligible, but `Any` placements prefer non-degraded peers.
    Degraded,
    /// At least [`HealthPolicy::quarantine_after`] consecutive failures:
    /// excluded from placement (pins get a typed error) until probation
    /// re-admits it.
    Quarantined,
    /// Re-admitted after sitting out [`HealthPolicy::probation_after`]
    /// skipped placements: eligible again, but one more failure
    /// re-quarantines immediately, while one success heals fully.
    Probation,
}

impl HealthState {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }

    /// Numeric severity code (exported as a gauge: 0 healthy, 1
    /// degraded, 2 probation, 3 quarantined).
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Probation => 2,
            HealthState::Quarantined => 3,
        }
    }
}

/// Thresholds of the per-device health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HealthPolicy {
    /// Consecutive failures before a device is [`HealthState::Degraded`].
    pub degrade_after: u32,
    /// Consecutive failures before a device is
    /// [`HealthState::Quarantined`].
    pub quarantine_after: u32,
    /// Placements a quarantined device must sit out before probation
    /// re-admits it.
    pub probation_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { degrade_after: 1, quarantine_after: 3, probation_after: 8 }
    }
}

impl HealthPolicy {
    /// Builder: degrade threshold (clamped to ≥ 1).
    pub fn degrade_after(mut self, failures: u32) -> Self {
        self.degrade_after = failures.max(1);
        self
    }

    /// Builder: quarantine threshold (clamped to ≥ 1).
    pub fn quarantine_after(mut self, failures: u32) -> Self {
        self.quarantine_after = failures.max(1);
        self
    }

    /// Builder: probation re-admission threshold (clamped to ≥ 1).
    pub fn probation_after(mut self, skips: u32) -> Self {
        self.probation_after = skips.max(1);
        self
    }
}

/// One health transition, in ledger order (`seq` is the ledger's logical
/// clock: the count of outcome notes and quarantine skips so far — no
/// wall clock, so the timeline is identical at any worker count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// The device that transitioned.
    pub device: DeviceId,
    /// The state it entered.
    pub state: HealthState,
    /// Logical time of the transition.
    pub seq: u64,
}

/// Bound on the retained health-event log (oldest kept; a pool seeing
/// more transitions than this is being deliberately tortured by a fault
/// plan, and the tail adds nothing).
const MAX_HEALTH_EVENTS: usize = 4096;

/// The pool's placement policy for `Any`/fallback placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// Minimise `predict_kernel_ms × iterations + assigned backlog` over
    /// compatible devices (ties break toward the lowest id).
    #[default]
    LeastLoaded,
    /// Rotate over compatible devices in id order, ignoring load — the
    /// baseline least-loaded placement is measured against.
    RoundRobin,
}

/// A successful placement decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The chosen device.
    pub device: DeviceId,
    /// Predicted total milliseconds of the job on that device
    /// (`predict_kernel_ms × iterations`) — the amount charged to the
    /// device's assigned ledger.
    pub predicted_ms: f64,
}

/// Why a placement was rejected. These are *submit-time* errors: the job
/// never queues, never runs, and never touches any cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementError {
    /// The pool contains no device of the required model.
    NoCompatibleDevice {
        /// The model the job was built for.
        required: DeviceModel,
    },
    /// A pinned/preferred affinity names a device id the pool does not
    /// have.
    UnknownDevice {
        /// The id the affinity named.
        device: DeviceId,
    },
    /// A pinned affinity names a device of the wrong model.
    IncompatibleDevice {
        /// The id the affinity named.
        device: DeviceId,
        /// The model the job was built for.
        required: DeviceModel,
        /// The model actually installed at that id.
        installed: DeviceModel,
    },
    /// A pinned affinity was given for a job that does not run on a
    /// device at all (a CPU backend).
    NotADeviceJob {
        /// The id the affinity named.
        device: DeviceId,
    },
    /// A pinned affinity names a device the health ledger has
    /// quarantined. Pins are a contract, so the pool rejects rather than
    /// silently moving the job.
    DeviceQuarantined {
        /// The quarantined device the pin named.
        device: DeviceId,
    },
    /// Every device of the required model is quarantined. Schedulers with
    /// a CPU-fallback policy degrade on this error instead of failing.
    AllDevicesQuarantined {
        /// The model the job was built for.
        required: DeviceModel,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCompatibleDevice { required } => {
                write!(f, "pool has no {} device", required.label())
            }
            PlacementError::UnknownDevice { device } => {
                write!(f, "pool has no device {device}")
            }
            PlacementError::IncompatibleDevice { device, required, installed } => {
                write!(
                    f,
                    "job requires a {} device but {device} is a {}",
                    required.label(),
                    installed.label()
                )
            }
            PlacementError::NotADeviceJob { device } => {
                write!(f, "job pinned to {device} does not run on a device")
            }
            PlacementError::DeviceQuarantined { device } => {
                write!(f, "device {device} is quarantined")
            }
            PlacementError::AllDevicesQuarantined { required } => {
                write!(f, "every {} device is quarantined", required.label())
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Live per-device counters. Everything here is observability: none of
/// it feeds back into placement (see the module docs of the crate).
#[derive(Debug, Default)]
struct Telemetry {
    /// Jobs sitting in this device's run queue right now.
    queued: AtomicUsize,
    /// Jobs admitted and executing right now.
    running: AtomicUsize,
    /// Peak of `queued + running` ever observed.
    peak_depth: AtomicUsize,
    /// Peak of `running` ever observed.
    peak_running: AtomicUsize,
    /// Jobs that ran to a posted result on this device.
    completed: AtomicU64,
    /// Accumulated host wall-clock microseconds spent executing jobs.
    busy_us: AtomicU64,
    /// Admission attempts rejected because every resident-job slot was
    /// busy (each is one wait bout a worker spent backing off).
    admission_waits: AtomicU64,
    /// Genuine runtime faults observed on this device (telemetry only —
    /// the deterministic health ledger is fed by `note_outcome`, never by
    /// this counter, so execution timing cannot perturb placement).
    faults: AtomicU64,
}

/// One device's cell in the deterministic health ledger.
#[derive(Debug, Clone, Default)]
struct HealthCell {
    state: HealthState,
    /// Consecutive noted failures since the last noted success.
    consecutive: u32,
    /// Placements this quarantined device has sat out so far.
    skips: u32,
    /// Times this device has ever entered quarantine.
    quarantines: u64,
}

/// Deterministic placement state, mutated only by [`DevicePool::place`]
/// and [`DevicePool::note_outcome`].
#[derive(Debug)]
struct Ledger {
    /// Total predicted milliseconds ever assigned per device — the
    /// "queue depth" term of the placement cost. Monotone by design:
    /// draining it on completion would make placement depend on
    /// completion timing and break worker-count determinism.
    assigned_ms: Vec<f64>,
    /// Round-robin cursor (used only under that strategy).
    rr_next: u64,
    /// Per-device health cells (same mutex as the rest of the
    /// deterministic state: health transitions are ordered by the
    /// submission sequence, not by execution timing).
    health: Vec<HealthCell>,
    /// Logical clock over health mutations (outcome notes + quarantine
    /// skips), stamped onto [`HealthEvent`]s.
    health_seq: u64,
    /// Transition log, oldest first, bounded by [`MAX_HEALTH_EVENTS`].
    events: Vec<HealthEvent>,
}

/// Point-in-time view of one pool device (see [`DevicePool::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    /// The device's pool id.
    pub id: DeviceId,
    /// Profile name.
    pub name: String,
    /// Hardware generation.
    pub model: DeviceModel,
    /// Jobs in the run queue right now.
    pub queued: usize,
    /// Jobs executing right now.
    pub running: usize,
    /// Peak `queued + running` observed.
    pub peak_depth: usize,
    /// Peak concurrent `running` observed (≤ `slots`: every admission
    /// path respects the budget).
    pub peak_running: usize,
    /// Jobs completed on this device.
    pub completed: u64,
    /// Host wall-clock milliseconds spent executing jobs.
    pub busy_ms: f64,
    /// Total predicted milliseconds assigned by the placement ledger.
    pub assigned_ms: f64,
    /// Admission attempts rejected on a full slot budget (backlog
    /// pressure: how often workers had to wait for this device).
    pub admission_waits: u64,
    /// Resident-job budget.
    pub slots: usize,
    /// Exec-thread budget.
    pub exec_threads: usize,
    /// Health-ledger state.
    pub health: HealthState,
    /// Consecutive ledger-noted failures since the last success.
    pub consecutive_failures: u32,
    /// Times the device has ever entered quarantine.
    pub quarantines: u64,
    /// Genuine runtime faults observed (telemetry; never feeds health).
    pub faults_observed: u64,
}

/// A fixed set of simulated devices plus the placement ledger and
/// telemetry. Profiles are immutable after construction; ids are the
/// construction order.
#[derive(Debug)]
pub struct DevicePool {
    profiles: Vec<DeviceProfile>,
    specs: Vec<DeviceSpec>,
    strategy: PlacementStrategy,
    health_policy: HealthPolicy,
    ledger: Mutex<Ledger>,
    telemetry: Vec<Telemetry>,
}

impl DevicePool {
    /// Build a pool over `profiles` (possibly empty: an empty pool is a
    /// CPU-only engine — every GPU placement fails with
    /// [`PlacementError::NoCompatibleDevice`]) with the default
    /// [`HealthPolicy`].
    pub fn new(profiles: Vec<DeviceProfile>, strategy: PlacementStrategy) -> Self {
        Self::with_health(profiles, strategy, HealthPolicy::default())
    }

    /// Build a pool with explicit health thresholds.
    pub fn with_health(
        profiles: Vec<DeviceProfile>,
        strategy: PlacementStrategy,
        health_policy: HealthPolicy,
    ) -> Self {
        let specs = profiles.iter().map(DeviceProfile::spec).collect();
        let telemetry = profiles.iter().map(|_| Telemetry::default()).collect();
        let assigned_ms = vec![0.0; profiles.len()];
        let health = vec![HealthCell::default(); assigned_ms.len()];
        DevicePool {
            profiles,
            specs,
            strategy,
            health_policy,
            ledger: Mutex::new(Ledger {
                assigned_ms,
                rr_next: 0,
                health,
                health_seq: 0,
                events: Vec::new(),
            }),
            telemetry,
        }
    }

    /// The health thresholds in force.
    pub fn health_policy(&self) -> HealthPolicy {
        self.health_policy
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Is the pool empty (CPU-only engine)?
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The placement strategy in force.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// The profile at `id`, if any.
    pub fn profile(&self, id: DeviceId) -> Option<&DeviceProfile> {
        self.profiles.get(id.0 as usize)
    }

    /// The derived [`DeviceSpec`] at `id`, if any (precomputed once).
    pub fn spec(&self, id: DeviceId) -> Option<&DeviceSpec> {
        self.specs.get(id.0 as usize)
    }

    /// Ids of every device of `model`, ascending.
    pub fn devices_of(&self, model: DeviceModel) -> Vec<DeviceId> {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.model == model)
            .map(|(i, _)| DeviceId(i as u32))
            .collect()
    }

    /// Validate that a *pinned* affinity names a real device (the cheap
    /// check a scheduler can run at submit time before the job's model
    /// is known, e.g. for auto backends). `Preferred` is a preference,
    /// not a contract: an unknown or incompatible preference falls back
    /// to `Any` at placement time, exactly as [`DevicePool::place`] and
    /// [`DevicePool::rotate`] treat it, so it never fails here.
    pub fn check_affinity(&self, affinity: DeviceAffinity) -> Result<(), PlacementError> {
        match affinity {
            DeviceAffinity::Pinned(d) => {
                if (d.0 as usize) < self.profiles.len() {
                    Ok(())
                } else {
                    Err(PlacementError::UnknownDevice { device: d })
                }
            }
            DeviceAffinity::Any | DeviceAffinity::Preferred(_) => Ok(()),
        }
    }

    /// The deterministic completion-time estimate the placement cost uses
    /// for a `(n, m, iterations)` job on `id`: `predict_kernel_ms ×
    /// iterations + assigned backlog`.
    pub fn predicted_completion_ms(
        &self,
        id: DeviceId,
        n: usize,
        m: usize,
        iterations: usize,
    ) -> Option<f64> {
        let profile = self.profile(id)?;
        let ledger = self.ledger.lock().expect("ledger lock");
        Some(job_ms(profile, n, m, iterations) + ledger.assigned_ms[id.0 as usize])
    }

    /// Place a job that requires a `required`-model device. On success the
    /// chosen device's assigned ledger is charged with the job's predicted
    /// milliseconds. Placement is deterministic in the call sequence: no
    /// wall clock, no completion feedback, no randomness.
    pub fn place(
        &self,
        required: DeviceModel,
        affinity: DeviceAffinity,
        n: usize,
        m: usize,
        iterations: usize,
    ) -> Result<Placement, PlacementError> {
        let compatible = self.devices_of(required);
        let mut guard = self.ledger.lock().expect("ledger lock");
        let ledger = &mut *guard;

        let chosen = match affinity {
            DeviceAffinity::Pinned(d) => {
                let p = self.profile(d).ok_or(PlacementError::UnknownDevice { device: d })?;
                if p.model != required {
                    return Err(PlacementError::IncompatibleDevice {
                        device: d,
                        required,
                        installed: p.model,
                    });
                }
                // A pin is a contract: a quarantined pin is a typed
                // rejection, never a silent move to another device.
                if ledger.health[d.0 as usize].state == HealthState::Quarantined {
                    return Err(PlacementError::DeviceQuarantined { device: d });
                }
                d
            }
            DeviceAffinity::Preferred(p) => {
                let available = self.admissible(ledger, &compatible, required)?;
                let best = self.pick(&available, ledger, required, n, m, iterations)?;
                match self.profile(p) {
                    Some(prof)
                        if prof.model == required
                            && ledger.health[p.0 as usize].state != HealthState::Quarantined =>
                    {
                        let best_cost = self.cost(ledger, best, n, m, iterations);
                        let pref_cost = self.cost(ledger, p, n, m, iterations);
                        if pref_cost <= best_cost * PREFERRED_SLACK {
                            p
                        } else {
                            best
                        }
                    }
                    // Incompatible, unknown, or quarantined preference:
                    // fall back to Any.
                    _ => best,
                }
            }
            DeviceAffinity::Any => {
                let available = self.admissible(ledger, &compatible, required)?;
                self.pick(&available, ledger, required, n, m, iterations)?
            }
        };

        let predicted_ms = job_ms(&self.profiles[chosen.0 as usize], n, m, iterations);
        ledger.assigned_ms[chosen.0 as usize] += predicted_ms;
        Ok(Placement { device: chosen, predicted_ms })
    }

    /// Filter `compatible` through the health ledger: quarantined devices
    /// are dropped (each drop is one "skip"; enough skips move the device
    /// to probation, which re-admits it on this very call). Callers hold
    /// the ledger lock.
    fn admissible(
        &self,
        ledger: &mut Ledger,
        compatible: &[DeviceId],
        required: DeviceModel,
    ) -> Result<Vec<DeviceId>, PlacementError> {
        if compatible.is_empty() {
            return Err(PlacementError::NoCompatibleDevice { required });
        }
        let mut available = Vec::with_capacity(compatible.len());
        for &d in compatible {
            let i = d.0 as usize;
            if ledger.health[i].state != HealthState::Quarantined {
                available.push(d);
                continue;
            }
            ledger.health_seq += 1;
            let seq = ledger.health_seq;
            let cell = &mut ledger.health[i];
            cell.skips += 1;
            if cell.skips >= self.health_policy.probation_after {
                // Probation: eligible again immediately, but primed so
                // that one more failure re-quarantines while one success
                // heals fully.
                cell.state = HealthState::Probation;
                cell.skips = 0;
                cell.consecutive = self.health_policy.quarantine_after.saturating_sub(1);
                push_event(
                    &mut ledger.events,
                    HealthEvent { device: d, state: HealthState::Probation, seq },
                );
                available.push(d);
            }
        }
        if available.is_empty() {
            return Err(PlacementError::AllDevicesQuarantined { required });
        }
        Ok(available)
    }

    /// The `Any` choice under the pool's strategy, over devices that
    /// already passed [`DevicePool::admissible`]. Degraded devices are a
    /// soft avoid: they are only picked when every alternative is also
    /// degraded. Callers hold the ledger lock.
    fn pick(
        &self,
        available: &[DeviceId],
        ledger: &mut Ledger,
        required: DeviceModel,
        n: usize,
        m: usize,
        iterations: usize,
    ) -> Result<DeviceId, PlacementError> {
        if available.is_empty() {
            return Err(PlacementError::NoCompatibleDevice { required });
        }
        let sound: Vec<DeviceId> = available
            .iter()
            .copied()
            .filter(|d| ledger.health[d.0 as usize].state != HealthState::Degraded)
            .collect();
        let compatible: &[DeviceId] = if sound.is_empty() { available } else { &sound };
        Ok(match self.strategy {
            PlacementStrategy::LeastLoaded => *compatible
                .iter()
                .min_by(|a, b| {
                    self.cost(ledger, **a, n, m, iterations)
                        .total_cmp(&self.cost(ledger, **b, n, m, iterations))
                })
                .expect("compatible is non-empty"),
            PlacementStrategy::RoundRobin => {
                let d = compatible[(ledger.rr_next % compatible.len() as u64) as usize];
                ledger.rr_next += 1;
                d
            }
        })
    }

    fn cost(&self, ledger: &Ledger, d: DeviceId, n: usize, m: usize, iterations: usize) -> f64 {
        job_ms(&self.profiles[d.0 as usize], n, m, iterations) + ledger.assigned_ms[d.0 as usize]
    }

    /// Stateless device choice for jobs whose device need is only known
    /// at run time (auto-resolved backends): a pure function of
    /// `(pool, required, affinity, key)`, so it cannot depend on
    /// execution order. Such jobs bypass the assigned ledger — their cost
    /// was unknown when the deterministic placement state was last
    /// mutated at submit time.
    pub fn rotate(
        &self,
        required: DeviceModel,
        affinity: DeviceAffinity,
        key: u64,
    ) -> Result<DeviceId, PlacementError> {
        self.rotate_avoiding(required, affinity, key, 0)
    }

    /// [`DevicePool::rotate`] over the devices *not* set in `avoid_mask`
    /// (bit *i* excludes device *i*). The mask is caller-supplied state —
    /// typically a quarantine mask captured at submit time — so the
    /// choice stays a pure function of its arguments; this method never
    /// reads the live health ledger. A pinned masked device is a typed
    /// rejection; a preferred masked device falls back to rotation.
    pub fn rotate_avoiding(
        &self,
        required: DeviceModel,
        affinity: DeviceAffinity,
        key: u64,
        avoid_mask: u64,
    ) -> Result<DeviceId, PlacementError> {
        let masked = |d: DeviceId| d.0 < 64 && (avoid_mask >> d.0) & 1 == 1;
        match affinity {
            DeviceAffinity::Pinned(d) | DeviceAffinity::Preferred(d) => {
                if let Some(p) = self.profile(d) {
                    if p.model == required && !masked(d) {
                        return Ok(d);
                    }
                    if matches!(affinity, DeviceAffinity::Pinned(_)) {
                        if p.model != required {
                            return Err(PlacementError::IncompatibleDevice {
                                device: d,
                                required,
                                installed: p.model,
                            });
                        }
                        return Err(PlacementError::DeviceQuarantined { device: d });
                    }
                } else if matches!(affinity, DeviceAffinity::Pinned(_)) {
                    return Err(PlacementError::UnknownDevice { device: d });
                }
            }
            DeviceAffinity::Any => {}
        }
        let compatible = self.devices_of(required);
        if compatible.is_empty() {
            return Err(PlacementError::NoCompatibleDevice { required });
        }
        let open: Vec<DeviceId> = compatible.iter().copied().filter(|d| !masked(*d)).collect();
        if open.is_empty() {
            return Err(PlacementError::AllDevicesQuarantined { required });
        }
        Ok(open[(key % open.len() as u64) as usize])
    }

    // --- health ledger (scheduler-facing) ----------------------------------

    /// Charge one job outcome on `id` to the health ledger. This is the
    /// *only* input to the health state machine; callers must invoke it
    /// in a deterministic order (the engine charges predicted outcomes at
    /// submit time) or accept placement divergence. Unknown ids are
    /// ignored.
    pub fn note_outcome(&self, id: DeviceId, ok: bool) {
        let i = id.0 as usize;
        if i >= self.profiles.len() {
            return;
        }
        let policy = self.health_policy;
        let mut guard = self.ledger.lock().expect("ledger lock");
        let ledger = &mut *guard;
        ledger.health_seq += 1;
        let seq = ledger.health_seq;
        let cell = &mut ledger.health[i];
        let new_state = if ok {
            cell.consecutive = 0;
            cell.skips = 0;
            HealthState::Healthy
        } else {
            cell.consecutive = cell.consecutive.saturating_add(1);
            if cell.consecutive >= policy.quarantine_after {
                HealthState::Quarantined
            } else if cell.consecutive >= policy.degrade_after {
                HealthState::Degraded
            } else {
                cell.state
            }
        };
        if new_state != cell.state {
            if new_state == HealthState::Quarantined {
                cell.quarantines += 1;
                cell.skips = 0;
            }
            cell.state = new_state;
            push_event(&mut ledger.events, HealthEvent { device: id, state: new_state, seq });
        }
    }

    /// The health state of `id`, if the pool has such a device.
    pub fn health(&self, id: DeviceId) -> Option<HealthState> {
        let ledger = self.ledger.lock().expect("ledger lock");
        ledger.health.get(id.0 as usize).map(|c| c.state)
    }

    /// Bitmask of currently quarantined devices (bit *i* set ⇔ device *i*
    /// quarantined; devices beyond id 63 are never masked). Capture this
    /// at submit time and feed it to [`DevicePool::rotate_avoiding`] to
    /// make run-time device choice health-aware without reading live
    /// state.
    pub fn quarantine_mask(&self) -> u64 {
        let ledger = self.ledger.lock().expect("ledger lock");
        ledger
            .health
            .iter()
            .take(64)
            .enumerate()
            .filter(|(_, c)| c.state == HealthState::Quarantined)
            .fold(0u64, |mask, (i, _)| mask | (1u64 << i))
    }

    /// The health transition log, oldest first (bounded; see
    /// [`HealthEvent`] for the logical clock).
    pub fn health_events(&self) -> Vec<HealthEvent> {
        let ledger = self.ledger.lock().expect("ledger lock");
        ledger.events.clone()
    }

    /// Count one genuine runtime fault on `id` (telemetry only: shows up
    /// in snapshots and metrics, never consulted by placement).
    pub fn note_fault_observed(&self, id: DeviceId) {
        if let Some(t) = self.telemetry.get(id.0 as usize) {
            t.faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    // --- slot accounting audit ---------------------------------------------

    /// Slot-accounting leaks visible right now: devices still holding
    /// running slots or queued entries. Meaningful once the scheduler has
    /// gone quiescent (all jobs terminal); each string names one
    /// imbalance. Empty means every `try_admit`/`try_admit_unqueued` was
    /// balanced by a `release`/`cancel_admit` and every `note_queued` was
    /// consumed.
    pub fn slot_leaks(&self) -> Vec<String> {
        let mut leaks = Vec::new();
        for (i, t) in self.telemetry.iter().enumerate() {
            let running = t.running.load(Ordering::Acquire);
            let queued = t.queued.load(Ordering::Acquire);
            if running != 0 {
                leaks.push(format!("dev{i}: {running} running slot(s) never released"));
            }
            if queued != 0 {
                leaks.push(format!("dev{i}: {queued} queued entr(ies) never admitted"));
            }
        }
        leaks
    }

    /// Panic (with every imbalance listed) if [`DevicePool::slot_leaks`]
    /// is non-empty. Test/teardown helper.
    pub fn assert_no_slot_leaks(&self) {
        let leaks = self.slot_leaks();
        assert!(leaks.is_empty(), "device slot accounting leaked: {}", leaks.join("; "));
    }

    // --- telemetry hooks (scheduler-facing) --------------------------------

    /// A job entered `id`'s run queue.
    pub fn note_queued(&self, id: DeviceId) {
        let t = &self.telemetry[id.0 as usize];
        let q = t.queued.fetch_add(1, Ordering::Relaxed) + 1;
        let depth = q + t.running.load(Ordering::Relaxed);
        t.peak_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reserve one resident-job slot on `id` (running++ iff below the
    /// slot budget, with peak tracking).
    fn try_reserve_slot(&self, id: DeviceId) -> bool {
        let t = &self.telemetry[id.0 as usize];
        let slots = self.profiles[id.0 as usize].slots;
        if t.running
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| (r < slots).then_some(r + 1))
            .is_err()
        {
            t.admission_waits.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        t.peak_running.fetch_max(t.running.load(Ordering::Relaxed), Ordering::Relaxed);
        true
    }

    /// Try to admit one more *queued* job onto `id` (respecting its slot
    /// budget); on success the job is accounted as running and removed
    /// from the queued count.
    pub fn try_admit(&self, id: DeviceId) -> bool {
        if !self.try_reserve_slot(id) {
            return false;
        }
        let t = &self.telemetry[id.0 as usize];
        let _ = t.queued.fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| q.checked_sub(1));
        true
    }

    /// Try to admit a job that was never queued on the device (an auto
    /// job that resolved to a GPU backend at run time). The slot budget
    /// applies exactly as for queued jobs; callers retry until a slot
    /// frees.
    pub fn try_admit_unqueued(&self, id: DeviceId) -> bool {
        self.try_reserve_slot(id)
    }

    /// Undo an admission whose job never ran (its queue entry had been
    /// finalised by an eager cancel/expiry).
    pub fn cancel_admit(&self, id: DeviceId) {
        let t = &self.telemetry[id.0 as usize];
        let _ = t.running.fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1));
    }

    /// A job finished executing on `id` after `wall` host time.
    pub fn release(&self, id: DeviceId, wall: std::time::Duration) {
        let t = &self.telemetry[id.0 as usize];
        let _ = t.running.fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1));
        t.completed.fetch_add(1, Ordering::Relaxed);
        t.busy_us.fetch_add(wall.as_micros() as u64, Ordering::Relaxed);
    }

    /// Pool-wide health roll-up: how many devices sit in each state
    /// right now. The serving layer's `/healthz` aggregate — one ledger
    /// lock, no per-device allocation.
    pub fn health_summary(&self) -> HealthSummary {
        let ledger = self.ledger.lock().expect("ledger lock");
        let mut summary = HealthSummary::default();
        for h in &ledger.health {
            match h.state {
                HealthState::Healthy => summary.healthy += 1,
                HealthState::Degraded => summary.degraded += 1,
                HealthState::Probation => summary.probation += 1,
                HealthState::Quarantined => summary.quarantined += 1,
            }
        }
        summary
    }

    /// Point-in-time view of every device.
    pub fn snapshot(&self) -> Vec<DeviceSnapshot> {
        let ledger = self.ledger.lock().expect("ledger lock");
        self.profiles
            .iter()
            .zip(&self.telemetry)
            .enumerate()
            .map(|(i, (p, t))| DeviceSnapshot {
                id: DeviceId(i as u32),
                name: p.name.clone(),
                model: p.model,
                queued: t.queued.load(Ordering::Relaxed),
                running: t.running.load(Ordering::Relaxed),
                peak_depth: t.peak_depth.load(Ordering::Relaxed),
                peak_running: t.peak_running.load(Ordering::Relaxed),
                completed: t.completed.load(Ordering::Relaxed),
                busy_ms: t.busy_us.load(Ordering::Relaxed) as f64 / 1e3,
                assigned_ms: ledger.assigned_ms[i],
                admission_waits: t.admission_waits.load(Ordering::Relaxed),
                slots: p.slots,
                exec_threads: p.exec_threads,
                health: ledger.health[i].state,
                consecutive_failures: ledger.health[i].consecutive,
                quarantines: ledger.health[i].quarantines,
                faults_observed: t.faults.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Pool-wide device-health roll-up (see [`DevicePool::health_summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSummary {
    /// Devices in [`HealthState::Healthy`].
    pub healthy: usize,
    /// Devices in [`HealthState::Degraded`].
    pub degraded: usize,
    /// Devices in [`HealthState::Probation`].
    pub probation: usize,
    /// Devices in [`HealthState::Quarantined`].
    pub quarantined: usize,
}

impl HealthSummary {
    /// Devices counted, across all states.
    pub fn total(&self) -> usize {
        self.healthy + self.degraded + self.probation + self.quarantined
    }

    /// Is every device fully healthy?
    pub fn all_healthy(&self) -> bool {
        self.total() == self.healthy
    }
}

/// Append a health event, keeping the log bounded (oldest retained: the
/// interesting part of a quarantine timeline is how it started).
fn push_event(events: &mut Vec<HealthEvent>, ev: HealthEvent) {
    if events.len() < MAX_HEALTH_EVENTS {
        events.push(ev);
    }
}

/// A job's predicted total milliseconds on `profile`.
fn job_ms(profile: &DeviceProfile, n: usize, m: usize, iterations: usize) -> f64 {
    profile.predict_kernel_ms(n, m) * iterations.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_and_two() -> DevicePool {
        DevicePool::new(
            vec![
                DeviceProfile::tesla_c1060("g0"),
                DeviceProfile::tesla_c1060("g1").sm_count(15),
                DeviceProfile::tesla_m2050("f0"),
                DeviceProfile::tesla_m2050("f1"),
            ],
            PlacementStrategy::LeastLoaded,
        )
    }

    #[test]
    fn least_loaded_spreads_equal_jobs_over_equal_devices() {
        let pool = two_and_two();
        let a = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 48, 32, 5).unwrap();
        let b = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 48, 32, 5).unwrap();
        assert_ne!(a.device, b.device, "second equal job must go to the idle twin");
        assert!(a.predicted_ms > 0.0);
    }

    #[test]
    fn least_loaded_prefers_the_faster_heterogeneous_device() {
        let pool = two_and_two();
        // g1 has half the SMs of g0; the first C1060 job must go to g0.
        let a = pool.place(DeviceModel::TeslaC1060, DeviceAffinity::Any, 64, 32, 5).unwrap();
        assert_eq!(a.device, DeviceId(0));
    }

    #[test]
    fn pinned_is_honoured_or_rejected() {
        let pool = two_and_two();
        let pin = DeviceAffinity::Pinned(DeviceId(1));
        let ok = pool.place(DeviceModel::TeslaC1060, pin, 32, 16, 3).unwrap();
        assert_eq!(ok.device, DeviceId(1));
        assert_eq!(
            pool.place(DeviceModel::TeslaM2050, pin, 32, 16, 3),
            Err(PlacementError::IncompatibleDevice {
                device: DeviceId(1),
                required: DeviceModel::TeslaM2050,
                installed: DeviceModel::TeslaC1060,
            })
        );
        assert_eq!(
            pool.place(DeviceModel::TeslaC1060, DeviceAffinity::Pinned(DeviceId(9)), 32, 16, 3),
            Err(PlacementError::UnknownDevice { device: DeviceId(9) })
        );
    }

    #[test]
    fn preferred_yields_when_markedly_worse() {
        let pool = two_and_two();
        // Load f1 heavily, then prefer it: the pool must override.
        for _ in 0..8 {
            pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Pinned(DeviceId(3)), 96, 64, 20)
                .unwrap();
        }
        let p = pool
            .place(DeviceModel::TeslaM2050, DeviceAffinity::Preferred(DeviceId(3)), 32, 16, 2)
            .unwrap();
        assert_eq!(p.device, DeviceId(2), "overloaded preference must be overridden");
        // A fresh pool honours the same preference.
        let fresh = two_and_two();
        let q = fresh
            .place(DeviceModel::TeslaM2050, DeviceAffinity::Preferred(DeviceId(3)), 32, 16, 2)
            .unwrap();
        assert_eq!(q.device, DeviceId(3));
    }

    #[test]
    fn round_robin_rotates_within_the_compatible_set() {
        let pool = DevicePool::new(
            vec![
                DeviceProfile::tesla_c1060("g0"),
                DeviceProfile::tesla_m2050("f0"),
                DeviceProfile::tesla_c1060("g1"),
            ],
            PlacementStrategy::RoundRobin,
        );
        let seq: Vec<DeviceId> = (0..4)
            .map(|_| {
                pool.place(DeviceModel::TeslaC1060, DeviceAffinity::Any, 32, 16, 3).unwrap().device
            })
            .collect();
        assert_eq!(seq, vec![DeviceId(0), DeviceId(2), DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn empty_or_modelless_pool_rejects_with_typed_errors() {
        let empty = DevicePool::new(Vec::new(), PlacementStrategy::LeastLoaded);
        assert_eq!(
            empty.place(DeviceModel::TeslaC1060, DeviceAffinity::Any, 16, 8, 1),
            Err(PlacementError::NoCompatibleDevice { required: DeviceModel::TeslaC1060 })
        );
        let fermi_only =
            DevicePool::new(vec![DeviceProfile::tesla_m2050("f0")], PlacementStrategy::LeastLoaded);
        assert_eq!(
            fermi_only.rotate(DeviceModel::TeslaC1060, DeviceAffinity::Any, 7),
            Err(PlacementError::NoCompatibleDevice { required: DeviceModel::TeslaC1060 })
        );
    }

    #[test]
    fn rotate_is_a_pure_function_of_its_key() {
        let pool = two_and_two();
        for key in 0..6 {
            let a = pool.rotate(DeviceModel::TeslaC1060, DeviceAffinity::Any, key).unwrap();
            let b = pool.rotate(DeviceModel::TeslaC1060, DeviceAffinity::Any, key).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, [DeviceId(0), DeviceId(1)][(key % 2) as usize]);
        }
    }

    #[test]
    fn slots_gate_admission_and_telemetry_balances() {
        let pool = DevicePool::new(
            vec![DeviceProfile::tesla_c1060("g0").slots(2)],
            PlacementStrategy::LeastLoaded,
        );
        let d = DeviceId(0);
        pool.note_queued(d);
        pool.note_queued(d);
        pool.note_queued(d);
        assert!(pool.try_admit(d));
        assert!(pool.try_admit(d));
        assert!(!pool.try_admit(d), "third admission exceeds the slot budget");
        assert!(!pool.try_admit_unqueued(d), "unqueued admissions share the same budget");
        pool.release(d, std::time::Duration::from_millis(3));
        assert!(pool.try_admit(d), "released slot is reusable");
        let snap = &pool.snapshot()[0];
        assert_eq!(snap.peak_running, 2);
        assert_eq!(snap.peak_depth, 3);
        assert_eq!(snap.completed, 1);
        assert!(snap.busy_ms >= 3.0);
        assert_eq!(snap.queued, 0);
    }

    #[test]
    fn health_machine_degrades_quarantines_and_heals() {
        let pool = two_and_two();
        let d = DeviceId(2);
        assert_eq!(pool.health(d), Some(HealthState::Healthy));
        pool.note_outcome(d, false);
        assert_eq!(pool.health(d), Some(HealthState::Degraded));
        pool.note_outcome(d, false);
        assert_eq!(pool.health(d), Some(HealthState::Degraded));
        pool.note_outcome(d, false);
        assert_eq!(pool.health(d), Some(HealthState::Quarantined));
        assert_eq!(pool.quarantine_mask(), 1 << 2);
        pool.note_outcome(d, true);
        assert_eq!(pool.health(d), Some(HealthState::Healthy));
        assert_eq!(pool.quarantine_mask(), 0);
        let states: Vec<HealthState> = pool.health_events().iter().map(|e| e.state).collect();
        assert_eq!(
            states,
            vec![HealthState::Degraded, HealthState::Quarantined, HealthState::Healthy]
        );
        let seqs: Vec<u64> = pool.health_events().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "logical clock must advance: {seqs:?}");
    }

    #[test]
    fn quarantined_devices_are_routed_around() {
        let pool = two_and_two();
        for _ in 0..3 {
            pool.note_outcome(DeviceId(2), false);
        }
        // Any placement must avoid f0 entirely now.
        for _ in 0..4 {
            let p = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap();
            assert_eq!(p.device, DeviceId(3));
        }
        // A preference for the quarantined device falls back ...
        let p = pool
            .place(DeviceModel::TeslaM2050, DeviceAffinity::Preferred(DeviceId(2)), 32, 16, 2)
            .unwrap();
        assert_eq!(p.device, DeviceId(3));
        // ... but a pin is a contract: typed rejection, never a move.
        assert_eq!(
            pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Pinned(DeviceId(2)), 32, 16, 2),
            Err(PlacementError::DeviceQuarantined { device: DeviceId(2) })
        );
    }

    #[test]
    fn degraded_devices_are_a_soft_avoid() {
        let pool = two_and_two();
        // Degrade f0 (one failure under the default policy).
        pool.note_outcome(DeviceId(2), false);
        // Both fermis idle: the healthy twin must win even though costs tie.
        let p = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap();
        assert_eq!(p.device, DeviceId(3));
        // Degrade the twin too: a degraded device is still placeable.
        pool.note_outcome(DeviceId(3), false);
        let q = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap();
        assert!(q.device == DeviceId(2) || q.device == DeviceId(3));
    }

    #[test]
    fn full_quarantine_is_a_typed_error_and_probation_readmits() {
        let policy = HealthPolicy::default().probation_after(2);
        let pool = DevicePool::with_health(
            vec![DeviceProfile::tesla_m2050("f0")],
            PlacementStrategy::LeastLoaded,
            policy,
        );
        let d = DeviceId(0);
        for _ in 0..3 {
            pool.note_outcome(d, false);
        }
        assert_eq!(
            pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2),
            Err(PlacementError::AllDevicesQuarantined { required: DeviceModel::TeslaM2050 }),
            "first skip"
        );
        // Second skip reaches probation_after = 2: the same call re-admits.
        let p = pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap();
        assert_eq!(p.device, d);
        assert_eq!(pool.health(d), Some(HealthState::Probation));
        // Probation is primed: one more failure re-quarantines at once ...
        pool.note_outcome(d, false);
        assert_eq!(pool.health(d), Some(HealthState::Quarantined));
        assert_eq!(pool.snapshot()[0].quarantines, 2);
        // ... while a success after re-admission heals fully.
        pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap_err();
        pool.place(DeviceModel::TeslaM2050, DeviceAffinity::Any, 32, 16, 2).unwrap();
        pool.note_outcome(d, true);
        assert_eq!(pool.health(d), Some(HealthState::Healthy));
    }

    #[test]
    fn rotate_avoiding_is_pure_and_respects_the_mask() {
        let pool = two_and_two();
        // Mask 0 is plain rotate.
        for key in 0..6 {
            assert_eq!(
                pool.rotate(DeviceModel::TeslaC1060, DeviceAffinity::Any, key),
                pool.rotate_avoiding(DeviceModel::TeslaC1060, DeviceAffinity::Any, key, 0)
            );
        }
        // Masking g0 leaves only g1 at every key.
        for key in 0..6 {
            assert_eq!(
                pool.rotate_avoiding(DeviceModel::TeslaC1060, DeviceAffinity::Any, key, 1 << 0),
                Ok(DeviceId(1))
            );
        }
        // Pins reject a masked device; preferences fall back.
        assert_eq!(
            pool.rotate_avoiding(
                DeviceModel::TeslaC1060,
                DeviceAffinity::Pinned(DeviceId(0)),
                3,
                1 << 0
            ),
            Err(PlacementError::DeviceQuarantined { device: DeviceId(0) })
        );
        assert_eq!(
            pool.rotate_avoiding(
                DeviceModel::TeslaC1060,
                DeviceAffinity::Preferred(DeviceId(0)),
                3,
                1 << 0
            ),
            Ok(DeviceId(1))
        );
        // Masking every compatible device is the typed full-quarantine error.
        assert_eq!(
            pool.rotate_avoiding(DeviceModel::TeslaC1060, DeviceAffinity::Any, 3, 0b11),
            Err(PlacementError::AllDevicesQuarantined { required: DeviceModel::TeslaC1060 })
        );
        // The mask never touches the live ledger.
        assert_eq!(pool.quarantine_mask(), 0);
    }

    #[test]
    fn slot_leak_audit_reports_and_clears() {
        let pool = DevicePool::new(
            vec![DeviceProfile::tesla_c1060("g0").slots(2)],
            PlacementStrategy::LeastLoaded,
        );
        let d = DeviceId(0);
        pool.note_queued(d);
        assert!(pool.try_admit(d));
        assert!(pool.try_admit_unqueued(d));
        let leaks = pool.slot_leaks();
        assert_eq!(leaks.len(), 1, "{leaks:?}");
        assert!(leaks[0].contains("2 running"));
        pool.release(d, std::time::Duration::from_millis(1));
        pool.cancel_admit(d);
        pool.assert_no_slot_leaks();
        pool.note_fault_observed(d);
        assert_eq!(pool.snapshot()[0].faults_observed, 1);
    }

    #[test]
    fn check_affinity_rejects_only_unknown_pins() {
        let pool = two_and_two();
        assert_eq!(pool.check_affinity(DeviceAffinity::Any), Ok(()));
        assert_eq!(pool.check_affinity(DeviceAffinity::Pinned(DeviceId(3))), Ok(()));
        assert_eq!(
            pool.check_affinity(DeviceAffinity::Pinned(DeviceId(4))),
            Err(PlacementError::UnknownDevice { device: DeviceId(4) })
        );
        // A preference is not a contract: unknown ids fall back to Any
        // at placement time instead of failing at submit.
        assert_eq!(pool.check_affinity(DeviceAffinity::Preferred(DeviceId(9))), Ok(()));
        let p =
            pool.place(DeviceModel::TeslaC1060, DeviceAffinity::Preferred(DeviceId(9)), 24, 12, 2);
        assert!(p.is_ok(), "unknown preference places as Any: {p:?}");
    }
}

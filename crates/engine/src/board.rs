//! The result board and progress streams: per-job result slots, their
//! exactly-once claims, and the bounded event buffers a job's
//! [`ProgressStream`] consumes.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use aco_core::lifecycle::IterationEvent;
use aco_obs::Counter;

use crate::scheduler::{JobState, Shared, PHASE_FINISHED};
use crate::solver::{EngineError, SolveReport};

struct ProgressInner {
    events: VecDeque<IterationEvent>,
    dropped: u64,
    closed: bool,
}

/// The bounded per-job event buffer shared by the solving worker (push
/// side, via the job's `SolveCtx` observer) and any [`ProgressStream`]s.
pub(crate) struct ProgressShared {
    inner: Mutex<ProgressInner>,
    cv: Condvar,
    capacity: usize,
    /// Engine-wide `aco_engine_progress_dropped_total` bridge (no-op
    /// when observability is off).
    dropped_metric: Counter,
}

impl ProgressShared {
    pub(crate) fn new(capacity: usize, dropped_metric: Counter) -> Self {
        ProgressShared {
            inner: Mutex::new(ProgressInner { events: VecDeque::new(), dropped: 0, closed: false }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            dropped_metric,
        }
    }

    /// Push one event, dropping (and counting) the oldest past the bound
    /// so the solver never blocks on a slow consumer.
    pub(crate) fn push(&self, ev: IterationEvent) {
        let mut inner = self.inner.lock().expect("progress lock");
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
            self.dropped_metric.inc();
        }
        inner.events.push_back(ev);
        drop(inner);
        self.cv.notify_all();
    }

    /// Events dropped so far (see the module's backpressure contract).
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.lock().expect("progress lock").dropped
    }

    /// Mark the stream finished (no further events will arrive).
    fn close(&self) {
        self.inner.lock().expect("progress lock").closed = true;
        self.cv.notify_all();
    }
}

/// A consuming view of a job's progress events, obtained from
/// [`JobHandle::progress`](crate::JobHandle::progress). Iteration blocks
/// until the next event or the end of the job;
/// [`ProgressStream::try_next`] never blocks. Events are *consumed*: two
/// streams over the same job split them between themselves, so use one
/// consumer per job.
///
/// For an uncancelled job whose event count stays within the request's
/// `progress_events` bound, the consumed sequence is bit-identical at any
/// engine worker count.
pub struct ProgressStream {
    pub(crate) shared: Arc<ProgressShared>,
}

impl ProgressStream {
    /// Next event if one is buffered (never blocks). `None` means "none
    /// right now" — the job may still be running; use the blocking
    /// iterator to distinguish end-of-stream.
    pub fn try_next(&mut self) -> Option<IterationEvent> {
        self.shared.inner.lock().expect("progress lock").events.pop_front()
    }

    /// Events dropped so far because the buffer was full (the oldest go
    /// first — see the module docs on backpressure).
    pub fn dropped(&self) -> u64 {
        self.shared.dropped()
    }
}

impl Iterator for ProgressStream {
    type Item = IterationEvent;

    /// Block until the next event, or `None` once the job has finished
    /// and every buffered event was consumed.
    fn next(&mut self) -> Option<IterationEvent> {
        let mut inner = self.shared.inner.lock().expect("progress lock");
        loop {
            if let Some(ev) = inner.events.pop_front() {
                return Some(ev);
            }
            if inner.closed {
                return None;
            }
            inner = self.shared.cv.wait(inner).expect("progress wait");
        }
    }
}

/// Lifecycle of one submitted job's result slot.
pub(crate) enum JobSlot {
    /// Submitted; no result yet.
    Pending,
    /// Finished; result waiting to be claimed.
    Done(Result<SolveReport, EngineError>),
}

/// In-flight result slots. A slot is created at submission and **removed
/// at claim**, so the board's size is bounded by the number of
/// outstanding jobs — no claimed-id tombstones and no drained-report
/// accumulation over the engine's lifetime. A claim on an issued id whose
/// slot is gone means "already claimed" and fails fast.
#[derive(Default)]
pub(crate) struct Board {
    pub(crate) jobs: HashMap<u64, JobSlot>,
}

impl Board {
    /// Take `id`'s result if it is done, removing its slot: `None` while
    /// it is pending, and `UnknownJob` for an issued id whose slot is
    /// gone because it was already claimed.
    fn take(&mut self, id: u64) -> Option<Result<SolveReport, EngineError>> {
        if matches!(self.jobs.get(&id), Some(JobSlot::Pending)) {
            return None;
        }
        match self.jobs.remove(&id) {
            Some(JobSlot::Done(result)) => Some(result),
            _ => Some(Err(EngineError::UnknownJob)),
        }
    }
}

impl Shared {
    /// Finalise a job: close its progress stream, mark it finished, and
    /// fill its result slot (a no-op if the slot was already claimed).
    pub(crate) fn post(&self, id: u64, state: &JobState, result: Result<SolveReport, EngineError>) {
        state.progress.close();
        state.phase.store(PHASE_FINISHED, Ordering::Release);
        let mut board = self.board.lock().expect("board lock");
        if let Some(slot) = board.jobs.get_mut(&id) {
            *slot = JobSlot::Done(result);
        }
        drop(board);
        self.results_cv.notify_all();
    }

    /// Blocking claim of `id`'s result (exactly once).
    pub(crate) fn claim_blocking(&self, id: u64) -> Result<SolveReport, EngineError> {
        let mut board = self.board.lock().expect("board lock");
        loop {
            if let Some(result) = board.take(id) {
                return result;
            }
            board = self.results_cv.wait(board).expect("results wait");
        }
    }

    /// Non-blocking claim: `None` while the job is still in flight.
    pub(crate) fn claim_nonblocking(&self, id: u64) -> Option<Result<SolveReport, EngineError>> {
        self.board.lock().expect("board lock").take(id)
    }
}

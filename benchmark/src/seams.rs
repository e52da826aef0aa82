//! Bench-owned wrappers at the program's public trait seams. Each one
//! forwards to the real implementation and records a span around the
//! call; the traced run composes the library through them, the
//! untraced run does not see them at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use janus_core::{CommitSink, Task};
use janus_detect::{
    ConflictDetector, DetectorStats, EntryState, Relaxation, SequenceOracle, ValidationSession,
};
use janus_log::{CellKey, ClassId, CommittedLog, Op};
use janus_obs::RingHandle;
use janus_relational::Value;
use janus_sched::{BackoffHint, Dispatch, SchedStats, SchedulePolicy, TaskSource};

use crate::trace::{current_txn, set_current_txn, span, Name};

/// Wraps a task body in a `core.execute` span and marks `txn` as the
/// transaction the worker is on, so the validation and sink spans of
/// the same attempt carry its id.
pub fn traced_task(inner: Task, txn: u64) -> Task {
    Task::new(move |tx| {
        set_current_txn(txn);
        let _span = span(Name::CoreExecute, txn);
        inner.run(tx);
    })
}

/// A detector that records `detect.begin_validation` and one
/// `detect.extend` per history delta.
pub struct TracedDetector {
    inner: Arc<dyn ConflictDetector>,
}

impl TracedDetector {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ConflictDetector>) -> Self {
        TracedDetector { inner }
    }
}

struct TracedSession<'a> {
    inner: Box<dyn ValidationSession + 'a>,
}

impl ValidationSession for TracedSession<'_> {
    fn extend(&mut self, delta: &janus_log::HistoryWindow<'_>) -> bool {
        let _span = span(Name::DetectExtend, current_txn());
        self.inner.extend(delta)
    }

    fn conflicted(&self) -> bool {
        self.inner.conflicted()
    }
}

impl ConflictDetector for TracedDetector {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        let _span = span(Name::DetectBegin, current_txn());
        Box::new(TracedSession {
            inner: self.inner.begin_validation_traced(entry, txn, obs),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &DetectorStats {
        self.inner.stats()
    }
}

/// A commutativity cache that records one `train.query` per lookup.
pub struct TracedOracle<O> {
    inner: O,
}

impl<O: SequenceOracle> TracedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TracedOracle { inner }
    }
}

impl<O: SequenceOracle> SequenceOracle for TracedOracle<O> {
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool> {
        let _span = span(Name::TrainQuery, current_txn());
        self.inner.query(class, entry, cell, txn, committed, relax)
    }
}

/// A schedule policy whose sources record `sched.next_task` and
/// `sched.on_abort`.
#[derive(Debug)]
pub struct TracedPolicy {
    inner: Arc<dyn SchedulePolicy>,
}

impl TracedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn SchedulePolicy>) -> Self {
        TracedPolicy { inner }
    }
}

impl SchedulePolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
        Box::new(TracedSource {
            inner: self.inner.bind(tasks, workers),
        })
    }
}

struct TracedSource {
    inner: Box<dyn TaskSource>,
}

impl TaskSource for TracedSource {
    fn next_task(&self, worker: usize) -> Option<Dispatch> {
        let _span = span(Name::SchedDispatch, worker as u64);
        self.inner.next_task(worker)
    }

    fn on_abort(&self, worker: usize, task: usize, attempt: u32) -> BackoffHint {
        let _span = span(Name::SchedAbort, task as u64);
        self.inner.on_abort(worker, task, attempt)
    }

    fn on_commit(&self, worker: usize, task: usize) {
        self.inner.on_commit(worker, task)
    }

    fn on_park(&self, worker: usize) {
        self.inner.on_park(worker)
    }

    fn on_unpark(&self, worker: usize) {
        self.inner.on_unpark(worker)
    }

    fn stats(&self) -> SchedStats {
        self.inner.stats()
    }
}

/// Committed logs kept for re-timing `CommittedLog::new` after the run.
const CAPTURED_LOGS: usize = 4096;

/// The sink seam of the traced run: forwards to the journal's sink (if
/// the workload has one) inside a `wal.append` span, and keeps the
/// first few committed logs.
pub struct TracedSink {
    inner: Option<Arc<dyn CommitSink>>,
    seen: AtomicUsize,
    logs: Mutex<Vec<Vec<Op>>>,
}

impl TracedSink {
    /// A sink in front of `inner`.
    pub fn new(inner: Option<Arc<dyn CommitSink>>) -> Self {
        TracedSink {
            inner,
            seen: AtomicUsize::new(0),
            logs: Mutex::new(Vec::with_capacity(CAPTURED_LOGS)),
        }
    }

    /// The captured logs, in arrival order.
    pub fn take_logs(&self) -> Vec<Vec<Op>> {
        std::mem::take(&mut self.logs.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl CommitSink for TracedSink {
    fn committed(&self, seq: u64, shard_mask: u64, ops: &[Op]) {
        if let Some(inner) = &self.inner {
            let _span = span(Name::WalAppend, current_txn());
            inner.committed(seq, shard_mask, ops);
        }
        // Relaxed: the counter only rations the sample.
        if self.seen.fetch_add(1, Ordering::Relaxed) < CAPTURED_LOGS {
            self.logs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ops.to_vec());
        }
    }

    fn skipped(&self, seq: u64) {
        if let Some(inner) = &self.inner {
            inner.skipped(seq);
        }
    }
}

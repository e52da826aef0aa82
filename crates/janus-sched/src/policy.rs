//! The pluggable scheduling policy and its per-run task source.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::backoff::BackoffHint;
use crate::stats::SchedStats;

/// A scheduling strategy. A policy is run-independent configuration; at
/// the start of each run the runtime calls [`SchedulePolicy::bind`] to
/// obtain the shared mutable state ([`TaskSource`]) its workers
/// dispatch through, so one `Janus` instance can be reused across runs.
pub trait SchedulePolicy: Send + Sync + std::fmt::Debug {
    /// The policy's stable label ("fifo").
    fn name(&self) -> &'static str;

    /// Binds the policy to one run over `tasks` tasks executed by
    /// `workers` worker threads.
    fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource>;
}

/// One dispatched task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Index of the task to run.
    pub task: usize,
}

impl Dispatch {
    /// A dispatch of task `task`.
    pub fn own(task: usize) -> Self {
        Dispatch { task }
    }
}

/// One run's dispatch state, shared by every worker thread.
pub trait TaskSource: Send + Sync {
    /// The next task for worker `worker`, or `None` once no task is left
    /// for that worker. Every task is dispatched exactly once, provided
    /// each of the bound `workers` keeps asking until it sees `None`.
    ///
    /// Ordered runs commit in task order, and a worker holding a task
    /// waits for that task's turn before asking for another. A source
    /// must therefore never leave the smallest uncommitted task
    /// undispatched while every worker waits on a turn: that task's turn
    /// would never come. Handing tasks out in ascending order meets this,
    /// as [`Fifo`]'s counter does — the smallest uncommitted task is
    /// always either running or the next one handed out.
    fn next_task(&self, worker: usize) -> Option<Dispatch>;

    /// Reports that `worker`'s attempt of `task` aborted for the
    /// `attempt`-th consecutive time (0-based) and returns how long the
    /// worker should wait before re-executing. The runtime performs the
    /// wait (so policies stay pure and deterministic) and records it.
    fn on_abort(&self, worker: usize, task: usize, attempt: u32) -> BackoffHint;

    /// Reports that `worker` committed `task`.
    fn on_commit(&self, _worker: usize, _task: usize) {}

    /// Reports that `worker` is about to block (an ordered-turn wait or
    /// a backoff sleep). A statistic hook, never a correctness
    /// requirement.
    fn on_park(&self, _worker: usize) {}

    /// Reports that `worker` resumed after an [`on_park`](Self::on_park).
    fn on_unpark(&self, _worker: usize) {}

    /// The source's scheduling counters so far.
    fn stats(&self) -> SchedStats;
}

/// The seed scheduler, preserved bit for bit: tasks are dispensed from
/// a single shared atomic counter in submission order, and aborted
/// attempts retry immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulePolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn bind(&self, tasks: usize, _workers: usize) -> Box<dyn TaskSource> {
        Box::new(FifoSource {
            next: AtomicUsize::new(0),
            total: tasks,
        })
    }
}

struct FifoSource {
    next: AtomicUsize,
    total: usize,
}

impl TaskSource for FifoSource {
    fn next_task(&self, _worker: usize) -> Option<Dispatch> {
        // The seed runtime's dispatch, verbatim: one Relaxed fetch_add.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then(|| Dispatch::own(i))
    }

    fn on_abort(&self, _worker: usize, _task: usize, _attempt: u32) -> BackoffHint {
        BackoffHint::none()
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            dispatched: self.next.load(Ordering::Relaxed).min(self.total) as u64,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_dispenses_in_submission_order() {
        let source = Fifo.bind(4, 8);
        assert_eq!(source.next_task(3), Some(Dispatch::own(0)));
        assert_eq!(source.next_task(0), Some(Dispatch::own(1)));
        assert_eq!(source.next_task(7), Some(Dispatch::own(2)));
        assert_eq!(source.next_task(1), Some(Dispatch::own(3)));
        assert_eq!(source.next_task(0), None);
        assert_eq!(source.next_task(0), None, "drained stays drained");
        assert_eq!(source.stats().dispatched, 4);
    }

    #[test]
    fn fifo_never_backs_off() {
        let source = Fifo.bind(2, 1);
        for attempt in 0..10 {
            assert_eq!(source.on_abort(0, 1, attempt), BackoffHint::none());
        }
        assert_eq!(source.stats().backoff_waits, 0);
    }
}

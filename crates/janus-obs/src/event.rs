//! The transaction-lifecycle event model.

use janus_log::{ClassId, LocId};

/// The outcome of one per-cell conflict check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The cell's subsequences were found compatible.
    Pass,
    /// The cell's subsequences conflict: the attempt will abort.
    Conflict,
}

impl Verdict {
    /// A short lower-case label ("pass" / "conflict").
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Conflict => "conflict",
        }
    }
}

/// Which rule decided a per-cell verdict — the abort-attribution axis:
/// a conflict's reason names the check that failed, a pass's reason
/// names the check that admitted the interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckReason {
    /// The `SAMEREAD` direction of Figure 8 (an exposed read observes a
    /// different value when the other subsequence runs first).
    SameRead,
    /// The `COMMUTE` direction of Figure 8 (the cell's final value
    /// depends on the evaluation order).
    Commute,
    /// The write-set overlap test (read/write or write/write on a
    /// common cell).
    WritesetOverlap,
    /// The commutativity cache missed and the write-set fallback
    /// decided the verdict.
    CacheMiss,
}

impl CheckReason {
    /// A short lower-case label ("sameread", "commute",
    /// "writeset-overlap", "cache-miss").
    pub fn label(self) -> &'static str {
        match self {
            CheckReason::SameRead => "sameread",
            CheckReason::Commute => "commute",
            CheckReason::WritesetOverlap => "writeset-overlap",
            CheckReason::CacheMiss => "cache-miss",
        }
    }
}

/// Why an attempt ended in an abort — the terminal-event axis of abort
/// attribution. Conflicts are the detector speaking; poisoned bailouts
/// are the runtime draining ordered waiters (and panicked attempts) out
/// of a run that can never complete, and must not be mistaken for
/// contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbortReason {
    /// A per-cell conflict check failed; the task will retry.
    Conflict,
    /// The run was poisoned by a panic: an ordered waiter whose
    /// predecessor will never commit bailed out, or the panicking
    /// attempt itself was closed. The task will *not* retry.
    Poisoned,
    /// The task's body panicked under `PanicPolicy::Isolate`: its
    /// transaction was discarded and the task recorded as failed, but
    /// the run continues — unlike [`AbortReason::Poisoned`], only this
    /// one task is lost. The task will *not* retry.
    Failed,
}

impl AbortReason {
    /// A short lower-case label ("conflict" / "poisoned" / "failed").
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::Conflict => "conflict",
            AbortReason::Poisoned => "poisoned",
            AbortReason::Failed => "failed",
        }
    }
}

/// One lifecycle event. Payload-only: the commit clock and monotonic
/// timestamp live on the enclosing [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// `CREATETRANSACTION`: an attempt of task `task` begins (the clock
    /// stamp is the attempt's begin time).
    Begin {
        /// The 1-based task id.
        task: u64,
    },
    /// The first validation of an attempt fetched its conflict window.
    ValidateOpen {
        /// Committed segments in the window `[begin, now)`.
        window_segments: u64,
    },
    /// A touched shard moved between the open validation and the commit
    /// locks; the residual pass re-checks only the delta, under the
    /// locks.
    DeltaRevalidate {
        /// Committed segments in the delta `[validated_to, head)`.
        window_segments: u64,
    },
    /// One per-cell conflict check ran.
    PerCellCheck {
        /// The location whose cell was checked.
        loc: LocId,
        /// The location's static class.
        class: ClassId,
        /// The check's outcome.
        verdict: Verdict,
        /// Which rule decided the verdict.
        reason: CheckReason,
        /// Operations scanned by the check (both subsequences).
        ops_scanned: u64,
    },
    /// The attempt aborted; see [`AbortReason`] for whether the task
    /// restarts from a fresh snapshot (conflict) or is abandoned
    /// (poisoned run).
    Abort {
        /// The aborting task's id.
        task: u64,
        /// Why the attempt ended without committing.
        reason: AbortReason,
    },
    /// The scheduler delayed an aborted task's retry (the wait happens
    /// between this attempt's `abort` and the next `begin`).
    SchedBackoff {
        /// The backing-off task's id.
        task: u64,
        /// Wait length, in backoff steps.
        steps: u64,
    },
    /// The attempt committed (the clock stamp is the post-commit clock).
    Commit {
        /// The committing task's id.
        task: u64,
    },
    /// History GC reclaimed committed logs below the horizon.
    GcReclaim {
        /// Entries reclaimed by this pass.
        reclaimed: u64,
    },
}

impl EventKind {
    /// A short lower-case label for the event kind.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Begin { .. } => "begin",
            EventKind::ValidateOpen { .. } => "validate_open",
            EventKind::DeltaRevalidate { .. } => "delta_revalidate",
            EventKind::PerCellCheck { .. } => "per_cell_check",
            EventKind::Abort { .. } => "abort",
            EventKind::SchedBackoff { .. } => "sched_backoff",
            EventKind::Commit { .. } => "commit",
            EventKind::GcReclaim { .. } => "gc_reclaim",
        }
    }
}

/// One recorded event: a lifecycle payload stamped with the commit clock
/// observed when it was recorded and a monotonic timestamp relative to
/// the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The commit clock observed at record time.
    pub clock: u64,
    /// Nanoseconds since the recorder's epoch (monotonic).
    pub ts_ns: u64,
    /// The lifecycle payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Verdict::Conflict.label(), "conflict");
        assert_eq!(CheckReason::SameRead.label(), "sameread");
        assert_eq!(CheckReason::CacheMiss.label(), "cache-miss");
        assert_eq!(EventKind::Begin { task: 1 }.label(), "begin");
        assert_eq!(EventKind::GcReclaim { reclaimed: 2 }.label(), "gc_reclaim");
        assert_eq!(AbortReason::Conflict.label(), "conflict");
        assert_eq!(AbortReason::Poisoned.label(), "poisoned");
        assert_eq!(AbortReason::Failed.label(), "failed");
        assert_eq!(
            EventKind::SchedBackoff { task: 1, steps: 4 }.label(),
            "sched_backoff"
        );
    }
}

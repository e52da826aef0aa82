//! Cross-batch ordering: trackers and the commit gate linking a batch
//! to its predecessor.
//!
//! Batch boundaries are *not* global barriers. A transaction in batch
//! N+1 may commit while batch N is still running, provided its
//! footprint is disjoint (by [`Fingerprint`] prefilter) from everything
//! batch N has executed so far **and** batch N has no unexecuted
//! transactions left that could still touch anything. Conservative on
//! both sides: a Bloom false positive or a not-yet-executed predecessor
//! only delays a commit, never admits a conflicting one.
//! Serializability itself never rests on the gate — the hindsight
//! validator checks every commit against the shared store history
//! regardless — the gate only pins the *equivalent serial order* to
//! "all of batch N before any conflicting part of batch N+1".
//!
//! Ordered blocks run without a gate: they follow the session's commit
//! turn, which already orders every task id after all smaller ones.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use janus_core::CommitGate;
use janus_log::Fingerprint;
use parking_lot::Mutex;

use crate::stats::BlockStats;

/// Shared record of one batch's progress, owned by the block executor
/// and observed (through a gate) by the *next* batch.
pub(crate) struct BatchTracker {
    /// How many transactions this batch was dispatched with.
    expected: usize,
    /// Union of the footprints of every attempt executed so far. Only
    /// grows, so a disjointness verdict taken against it can go stale
    /// in the conservative direction only if re-checked; a single
    /// check is valid only together with `all_executed` (nothing new
    /// can appear) — the gate enforces that pairing.
    executed_union: Mutex<Fingerprint>,
    /// Distinct transaction ids that have executed (or terminally
    /// failed) at least once. Re-executions after an abort re-insert
    /// the same id, keeping the count exact.
    executed_tids: Mutex<BTreeSet<u64>>,
    /// Set once the batch's `Session::run` has fully returned (commits
    /// durable, workers parked) — including the poisoned/failed case,
    /// so a failed predecessor can never wedge its successor.
    done: AtomicBool,
}

impl BatchTracker {
    /// A tracker for a batch of `expected` transactions.
    pub(crate) fn new(expected: usize) -> Arc<Self> {
        Arc::new(BatchTracker {
            expected,
            executed_union: Mutex::new(Fingerprint::empty()),
            executed_tids: Mutex::new(BTreeSet::new()),
            done: AtomicBool::new(false),
        })
    }

    fn note(&self, tid: u64, fingerprint: &Fingerprint) {
        // Union first, then the tid: a successor that observes the id
        // as executed must also observe (at least) that footprint.
        self.executed_union.lock().union(fingerprint);
        self.executed_tids.lock().insert(tid);
    }

    pub(crate) fn all_executed(&self) -> bool {
        self.executed_tids.lock().len() >= self.expected
    }

    /// Mark the batch finished. Called by the block executor after
    /// `Session::run` returns or unwinds — unconditionally, so successors
    /// never wait on a corpse.
    pub(crate) fn complete(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether the batch has fully finished (committed or failed).
    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// The [`CommitGate`] an unordered pipelined batch runs under: linked
/// to its predecessor's tracker, if any, feeding its own.
///
/// `may_commit` opens for a transaction when there is no predecessor,
/// when the predecessor batch is done, or when every predecessor
/// transaction has executed at least once and the committer's footprint
/// is disjoint (by fingerprint) from the union of everything the
/// predecessor executed. The last arm is what buys pipeline overlap:
/// read-disjoint batches commit concurrently while the predecessor is
/// still validating. Each such early release is counted straight into
/// the pipeline's [`BlockStats`], so no tracker has to outlive its
/// successor for the overlap figure.
pub(crate) struct PipelinedLink {
    prev: Option<Arc<BatchTracker>>,
    own: Arc<BatchTracker>,
    stats: Arc<BlockStats>,
}

impl PipelinedLink {
    /// Links a batch (`own`) to its predecessor's tracker, counting
    /// early releases into `stats`.
    pub(crate) fn new(
        prev: Option<Arc<BatchTracker>>,
        own: Arc<BatchTracker>,
        stats: Arc<BlockStats>,
    ) -> Self {
        PipelinedLink { prev, own, stats }
    }
}

impl CommitGate for PipelinedLink {
    fn note_executed(&self, tid: u64, fingerprint: &Fingerprint) {
        self.own.note(tid, fingerprint);
    }

    fn may_commit(&self, _tid: u64, fingerprint: &Fingerprint) -> bool {
        let Some(prev) = self.prev.as_deref().filter(|p| !p.is_done()) else {
            return true;
        };
        // All predecessor transactions have produced a footprint, and
        // ours overlaps none of them: committing now is equivalent to
        // committing after the predecessor, so let it through.
        let open = prev.all_executed() && !fingerprint.may_intersect(&prev.executed_union.lock());
        if open {
            self.stats
                .overlapped_commits
                .fetch_add(1, Ordering::Relaxed);
        }
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_log::{ClassId, LocId};

    fn fp(loc: u64) -> Fingerprint {
        let mut f = Fingerprint::empty();
        f.insert(LocId(loc), &ClassId::new("acct"));
        f
    }

    #[test]
    fn pipelined_gate_opens_for_disjoint_footprints_once_prev_executed() {
        let prev = BatchTracker::new(2);
        let own = BatchTracker::new(1);
        let stats = Arc::new(BlockStats::default());
        let gate = PipelinedLink::new(Some(Arc::clone(&prev)), own, Arc::clone(&stats));

        let mine = fp(77);
        // Predecessor not fully executed: closed even when disjoint.
        prev.note(1, &fp(1));
        assert!(!gate.may_commit(10, &mine));
        // Second predecessor transaction executes with a disjoint
        // footprint: gate opens without waiting for prev to commit.
        prev.note(2, &fp(2));
        assert!(gate.may_commit(10, &mine));
        assert_eq!(stats.report(0).overlapped_commits, 1);
        // An overlapping footprint stays gated until prev is done.
        assert!(!gate.may_commit(11, &fp(1)));
        prev.complete();
        assert!(gate.may_commit(11, &fp(1)));
    }

    #[test]
    fn reexecuted_tids_do_not_double_count() {
        let prev = BatchTracker::new(2);
        let own = BatchTracker::new(1);
        let gate = PipelinedLink::new(Some(Arc::clone(&prev)), own, Arc::default());
        prev.note(1, &fp(1));
        prev.note(1, &fp(3)); // re-execution after an abort: same tid
        assert!(
            !gate.may_commit(10, &fp(77)),
            "one distinct tid of two expected must keep the gate shut"
        );
    }

    #[test]
    fn failed_predecessor_transactions_unblock_disjoint_successors() {
        let prev = BatchTracker::new(2);
        let own = BatchTracker::new(1);
        let gate = PipelinedLink::new(Some(Arc::clone(&prev)), own, Arc::default());
        prev.note(1, &fp(1));
        // Transaction 2 failed terminally (isolated): it contributes no
        // footprint but counts as executed.
        prev.note(2, &Fingerprint::empty());
        assert!(gate.may_commit(10, &fp(77)));
    }
}

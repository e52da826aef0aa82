//! The block executor: batches in, [`BlockOutcome`]s out, with up to
//! two batches in flight.
//!
//! Each submitted block is reserved as one [`Batch`](janus_core::Batch)
//! of a shared [`Session`] on the submitting thread, so block N's task
//! ids precede block N+1's. The batch then moves into its own job on the
//! process-wide pool ([`janus_core::spawn`]), whose thread runs it as
//! the batch's worker 0 and drops it there, so each pool job holds one
//! batch. Block N+1 runs while block N validates and commits. Unordered
//! blocks commit as they validate, their commits interleaved; the
//! validator checks each one against the session's whole history, so
//! the stream stays serializable. Ordered blocks (`Janus::ordered`)
//! follow the session's turn, which keeps exact submission order: a
//! block's batch hands its turns on when it is dropped, however the
//! block ended.
//!
//! Failure is block-scoped: a poison panic or watchdog fire inside a
//! block is caught by its pool job and surfaces as
//! [`BlockStatus::Failed`]; the session and every other block stay
//! live.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_core::{payload_message, BatchOutcome, Janus, Pending, Session, Store, Task};
use janus_log::LocId;
use janus_relational::Value;

use crate::stats::BlockStats;

/// Blocks in flight at once: block N+1 executes while block N commits.
const DEPTH: usize = 2;

/// The executor's one pipeline shape. [`BlockExecutor::new`] ignores
/// it; it stays only because the frozen benchmark package calls
/// `BlockExecutor::new(.., PipelineMode::Pipelined)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Up to [`DEPTH`] blocks in flight.
    Pipelined,
}

/// Terminal state of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockStatus {
    /// The block drained: every transaction committed or was isolated.
    Committed,
    /// The block was lost to a poison panic or a watchdog fire.
    /// Transactions that had already committed keep their effects.
    Failed,
}

/// The result of one block.
#[derive(Debug)]
pub struct BlockOutcome {
    /// 1-based block sequence number, in submission order.
    pub seq: u64,
    /// Transactions the block was submitted with.
    pub tasks: usize,
    /// Whether the block drained or was lost.
    pub status: BlockStatus,
    /// The failure reason, for [`BlockStatus::Failed`].
    pub error: Option<String>,
    /// The underlying batch statistics. `None` only when the batch
    /// unwound before producing them (poison panic).
    pub batch: Option<BatchOutcome>,
    /// Wall time from dispatch to completion.
    pub latency: Duration,
}

impl BlockOutcome {
    /// Transactions this block committed (0 when unknown after a
    /// poison unwind).
    pub fn commits(&self) -> u64 {
        self.batch.as_ref().map_or(0, |b| b.stats.commits)
    }
}

/// Result of [`BlockExecutor::submit`]: the older blocks retired to
/// make room for the new one.
#[derive(Debug)]
pub struct Submitted {
    /// Blocks that completed while making room (in submission order).
    pub retired: Vec<BlockOutcome>,
}

/// A long-lived executor: one [`Session`], blocks streamed through
/// [`BlockExecutor::submit`] / [`BlockExecutor::execute_blocks`].
pub struct BlockExecutor {
    session: Arc<Session>,
    stats: Arc<BlockStats>,
    seq: u64,
    /// Commit-clock offset for recovered services: the session counts
    /// from 1, [`BlockExecutor::commit_seq`] reports the global
    /// sequence `base + session`.
    seq_base: u64,
    inflight: VecDeque<Pending<BlockOutcome>>,
    /// First submit, for the stream-wall half of the overlap ratio.
    first_submit: Option<Instant>,
    /// Stream wall accumulated up to the last drain.
    wall: Duration,
}

impl BlockExecutor {
    /// An executor over `store`.
    pub fn new(janus: Janus, store: Store, _mode: PipelineMode) -> Self {
        let session = Arc::new(janus.open_session(store));
        BlockExecutor {
            session,
            stats: Arc::new(BlockStats::default()),
            seq: 0,
            seq_base: 0,
            inflight: VecDeque::new(),
            first_submit: None,
            wall: Duration::ZERO,
        }
    }

    /// Offsets the reported commit clock by a recovered base: a service
    /// that replayed `base` journaled tickets on boot reports
    /// continuations as `base + 1, base + 2, …`, keeping one dense
    /// global sequence across restarts.
    pub fn with_seq_base(mut self, base: u64) -> Self {
        self.seq_base = base;
        self
    }

    /// The shared pipeline statistics.
    pub fn stats(&self) -> &Arc<BlockStats> {
        &self.stats
    }

    /// The committed value of one location now, without quiescing
    /// in-flight blocks (read-locks only the owning shard).
    pub fn value(&self, loc: LocId) -> Option<Value> {
        self.session.value(loc)
    }

    /// Committed transactions so far, per the session's commit clock —
    /// global (offset by any recovered base, see
    /// [`BlockExecutor::with_seq_base`]).
    pub fn commit_seq(&self) -> u64 {
        self.seq_base + self.session.commit_seq()
    }

    /// Submits one block. Blocks (joining the oldest in-flight batch)
    /// when the pipeline is at depth — that join is the executor's
    /// intrinsic backpressure.
    pub fn submit(&mut self, tasks: Vec<Task>) -> Submitted {
        self.first_submit.get_or_insert_with(Instant::now);
        self.seq += 1;
        let seq = self.seq;
        let mut retired = Vec::new();
        while self.inflight.len() >= DEPTH {
            retired.push(self.retire_oldest());
        }

        let n = tasks.len();
        // Reserved here, not in the pool job, so block N's ids precede
        // block N+1's whichever job starts first.
        let batch = self.session.reserve(tasks);

        self.stats.blocks_submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.block_size.lock().observe(n as u64);

        let session = Arc::clone(&self.session);
        let stats = Arc::clone(&self.stats);
        // The pool drops the job's captures — the session handle among
        // them — before `join` returns, so `finish` after a drain holds
        // the only session handle.
        self.inflight.push_back(janus_core::spawn(move || {
            conduct(seq, n, &stats, || session.run(batch))
        }));
        Submitted { retired }
    }

    /// Joins every in-flight block, returning their outcomes in
    /// submission order.
    pub fn drain(&mut self) -> Vec<BlockOutcome> {
        let mut out = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            out.push(self.retire_oldest());
        }
        if let Some(t0) = self.first_submit.take() {
            self.wall += t0.elapsed();
        }
        out
    }

    /// Runs a stream of blocks through the pipeline and returns every
    /// outcome in submission order.
    pub fn execute_blocks(&mut self, blocks: Vec<Vec<Task>>) -> Vec<BlockOutcome> {
        let mut out = Vec::with_capacity(blocks.len());
        for tasks in blocks {
            out.extend(self.submit(tasks).retired);
        }
        out.extend(self.drain());
        out
    }

    /// Stream wall time accumulated so far (first submit to last
    /// drain), in microseconds — the denominator of the overlap ratio.
    pub fn stream_wall_micros(&self) -> u64 {
        let live = self.first_submit.map_or(Duration::ZERO, |t0| t0.elapsed());
        (self.wall + live).as_micros() as u64
    }

    /// Drains the pipeline and closes the session, returning the final
    /// store and the per-shard commit-path report. Any outcomes still
    /// in flight are returned too.
    pub fn finish(mut self) -> (Store, janus_core::ShardReport, Vec<BlockOutcome>) {
        let tail = self.drain();
        let session = Arc::try_unwrap(self.session)
            .unwrap_or_else(|_| unreachable!("drained pipeline holds the only session handle"));
        let (store, report) = session.finish();
        (store, report, tail)
    }

    fn retire_oldest(&mut self) -> BlockOutcome {
        let block = self.inflight.pop_front().expect("non-empty pipeline");
        // `conduct` catches batch unwinds itself; an `Err` here means
        // the harness around the batch panicked.
        block
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
}

/// One block's pool job: run the batch of `n` tasks and fold the result
/// into the shared stats.
fn conduct(
    seq: u64,
    n: usize,
    stats: &BlockStats,
    run: impl FnOnce() -> BatchOutcome,
) -> BlockOutcome {
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
    let latency = started.elapsed();
    stats.latency_us.lock().observe(latency.as_micros() as u64);

    let (status, error, batch) = match result {
        Ok(batch) if !batch.poisoned => (BlockStatus::Committed, None, Some(batch)),
        Ok(batch) => {
            let why = batch
                .watchdog_dumps
                .first()
                .map_or("batch poisoned", |_| "watchdog declared the batch hung");
            (BlockStatus::Failed, Some(why.to_string()), Some(batch))
        }
        Err(payload) => (
            BlockStatus::Failed,
            Some(payload_message(payload.as_ref())),
            None,
        ),
    };
    match status {
        BlockStatus::Committed => {
            stats.blocks_committed.fetch_add(1, Ordering::Relaxed);
        }
        BlockStatus::Failed => {
            stats.blocks_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(b) = &batch {
        stats
            .txns_committed
            .fetch_add(b.stats.commits, Ordering::Relaxed);
        stats
            .txns_retried
            .fetch_add(b.stats.retries, Ordering::Relaxed);
        stats
            .txns_failed
            .fetch_add(b.failed.len() as u64, Ordering::Relaxed);
    }
    BlockOutcome {
        seq,
        tasks: n,
        status,
        error,
        batch,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::PanicPolicy;
    use janus_detect::SequenceDetector;
    use janus_sched::{BackoffHint, Dispatch, Fifo, SchedStats, SchedulePolicy, TaskSource};
    use std::sync::atomic::AtomicBool;

    fn janus(threads: usize) -> Janus {
        Janus::new(Arc::new(SequenceDetector::new())).threads(threads)
    }

    fn counter_tasks(loc: LocId, n: usize, delta: i64) -> Vec<Task> {
        (0..n)
            .map(|_| Task::new(move |tx| tx.add(loc, delta)))
            .collect()
    }

    #[test]
    fn blocks_accumulate_on_one_session() {
        let mut store = Store::new();
        let acct = store.alloc("acct", Value::int(0));
        let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
        let outcomes = exec.execute_blocks(vec![
            counter_tasks(acct, 4, 1),
            counter_tasks(acct, 4, 1),
            counter_tasks(acct, 4, 1),
        ]);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(
            outcomes.iter().map(|o| o.seq).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert!(outcomes.iter().all(|o| o.status == BlockStatus::Committed));
        assert_eq!(outcomes.iter().map(BlockOutcome::commits).sum::<u64>(), 12);
        let (store, report, tail) = exec.finish();
        assert!(tail.is_empty());
        assert_eq!(store.value(acct), Some(&Value::int(12)));
        // One-location tasks touch exactly one shard per commit.
        assert_eq!(report.0.iter().map(|s| s.commits).sum::<u64>(), 12);
    }

    #[test]
    fn disjoint_blocks_overlap_under_pipelining() {
        // Two blocks over disjoint accounts, in flight together.
        let mut store = Store::new();
        let a = store.alloc("a", Value::int(0));
        let b = store.alloc("b", Value::int(0));
        let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
        let outcomes = exec.execute_blocks(vec![counter_tasks(a, 6, 1), counter_tasks(b, 6, 1)]);
        assert!(outcomes.iter().all(|o| o.status == BlockStatus::Committed));
        let (store, _, _) = exec.finish();
        assert_eq!(store.value(a), Some(&Value::int(6)));
        assert_eq!(store.value(b), Some(&Value::int(6)));
    }

    #[test]
    fn poisoned_block_fails_alone_and_the_pipeline_survives() {
        // A Poison-policy panic inside block 2 must surface as
        // BlockStatus::Failed for that block only; the session, pool
        // and the block after it stay live.
        let mut store = Store::new();
        let acct = store.alloc("acct", Value::int(0));
        let mut exec = BlockExecutor::new(
            janus(2).panic_policy(PanicPolicy::Poison),
            store,
            PipelineMode::Pipelined,
        );
        let bad: Vec<Task> = (0..3)
            .map(|i| {
                Task::new(move |tx| {
                    if i == 1 {
                        panic!("mid-batch failure");
                    }
                    tx.add(acct, 1);
                })
            })
            .collect();
        let outcomes = exec.execute_blocks(vec![
            counter_tasks(acct, 3, 1),
            bad,
            counter_tasks(acct, 3, 1),
        ]);
        let status: Vec<_> = outcomes.iter().map(|o| o.status).collect();
        assert_eq!(
            status,
            [
                BlockStatus::Committed,
                BlockStatus::Failed,
                BlockStatus::Committed
            ]
        );
        assert_eq!(outcomes[1].error.as_deref(), Some("mid-batch failure"));
        assert_eq!(outcomes[2].commits(), 3);

        let report = exec.stats().report(exec.stream_wall_micros());
        assert_eq!(report.blocks_committed, 2);
        assert_eq!(report.blocks_failed, 1);
        let (store, _, _) = exec.finish();
        // 3 before, 3 after, plus whatever the poisoned block committed
        // before dying (0..=2 of its tasks).
        let v = match store.value(acct) {
            Some(v) => v.as_int().expect("int"),
            None => panic!("acct present"),
        };
        assert!((6..=8).contains(&v), "got {v}");
    }

    #[test]
    fn an_unordered_block_commits_while_its_predecessor_still_runs() {
        // Both blocks add to `x`. Block 1's task holds its body open
        // until the main thread has seen block 2's commit land: block
        // 2 must not wait for its predecessor to finish.
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(0));
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let held = Arc::clone(&release);
        let slow = Task::new(move |tx| {
            let t0 = Instant::now();
            while !held.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            tx.add(x, 10);
        });
        let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
        exec.submit(vec![slow]);
        exec.submit(counter_tasks(x, 1, 1));
        let t0 = Instant::now();
        let mut seen = exec.value(x);
        while seen != Some(Value::int(1)) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
            seen = exec.value(x);
        }
        release.store(true, Ordering::Release);
        let outcomes = exec.drain();
        assert_eq!(
            seen,
            Some(Value::int(1)),
            "block 2 committed only after block 1"
        );
        let status: Vec<_> = outcomes.iter().map(|o| o.status).collect();
        assert_eq!(status, [BlockStatus::Committed, BlockStatus::Committed]);
        let (store, _, _) = exec.finish();
        assert_eq!(store.value(x), Some(&Value::int(11)));
    }

    #[test]
    fn a_poisoned_ordered_block_releases_its_turns_to_the_next() {
        // x = 3x + d does not commute, so the final value pins the
        // commit order. Block 2's second task is dispatched at once and
        // panics, usually while the long block 1 is still committing:
        // the turns block 2 never takes must pass to block 3, and only
        // after block 1 has taken its own.
        const MOD: i64 = 1_000_003;
        let step = |x: i64, d: i64| (3 * x + d) % MOD;
        for _ in 0..10 {
            let mut store = Store::new();
            let x = store.alloc("x", Value::int(0));
            let block = |base: i64, n: i64, panic_at: Option<i64>| -> Vec<Task> {
                (0..n)
                    .map(|i| {
                        Task::new(move |tx| {
                            if Some(i) == panic_at {
                                panic!("mid-block failure");
                            }
                            let v = tx.read_int(x);
                            tx.write(x, step(v, base + i));
                        })
                    })
                    .collect()
            };
            let janus = janus(2).ordered(true).panic_policy(PanicPolicy::Poison);
            let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
            let outcomes = exec.execute_blocks(vec![
                block(100, 64, None),
                block(200, 4, Some(1)),
                block(300, 4, None),
            ]);
            let status: Vec<_> = outcomes.iter().map(|o| o.status).collect();
            assert_eq!(
                status,
                [
                    BlockStatus::Committed,
                    BlockStatus::Failed,
                    BlockStatus::Committed
                ]
            );
            assert_eq!(outcomes[2].commits(), 4, "block 3 commits every task");
            // Block 2 committed some prefix of its tasks before the
            // panic poisoned it; everything else ran in submission order.
            let prefix = exec.commit_seq() as i64 - 68;
            assert!((0..=1).contains(&prefix), "block 2 committed {prefix}");
            let deltas = (100..164).chain(200..200 + prefix).chain(300..304);
            let expected = deltas.fold(0, step);
            let (store, _, _) = exec.finish();
            assert_eq!(store.value(x), Some(&Value::int(expected)));
        }
    }

    /// FIFO dispatch whose `bind` panics for a batch of the given size,
    /// so that block fails before any of its workers starts. Keyed on
    /// the size, not the call count: two in-flight blocks bind on their
    /// own pool threads, in either order.
    #[derive(Debug)]
    struct BindPanicsAt(usize);

    impl SchedulePolicy for BindPanicsAt {
        fn name(&self) -> &'static str {
            "bind-panics-at"
        }

        fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
            assert_ne!(tasks, self.0, "bind failure");
            Fifo.bind(tasks, workers)
        }
    }

    #[test]
    fn an_ordered_block_that_fails_before_its_workers_start_releases_its_turns() {
        // x = 3x + d pins the commit order. Block 2 unwinds out of
        // `bind`, usually while the long block 1 is still committing:
        // its turns must still pass to block 3, after block 1's.
        const MOD: i64 = 1_000_003;
        let step = |x: i64, d: i64| (3 * x + d) % MOD;
        let (done, result) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let mut store = Store::new();
            let x = store.alloc("x", Value::int(0));
            let block = |base: i64, n: i64| -> Vec<Task> {
                (0..n)
                    .map(|i| {
                        Task::new(move |tx| {
                            let v = tx.read_int(x);
                            tx.write(x, step(v, base + i));
                        })
                    })
                    .collect()
            };
            let janus = janus(2).ordered(true).schedule(Arc::new(BindPanicsAt(3)));
            let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
            let outcomes = exec.execute_blocks(vec![block(100, 64), block(200, 3), block(300, 4)]);
            let (store, _, _) = exec.finish();
            let _ = done.send((outcomes, store.value(x).cloned()));
        });
        let (outcomes, value) = result
            .recv_timeout(Duration::from_secs(10))
            .expect("the block after a failed one stalled");
        runner.join().expect("the executor thread exits cleanly");
        let status: Vec<_> = outcomes.iter().map(|o| o.status).collect();
        assert_eq!(
            status,
            [
                BlockStatus::Committed,
                BlockStatus::Failed,
                BlockStatus::Committed
            ]
        );
        let error = outcomes[1].error.as_deref().unwrap_or_default();
        assert!(error.contains("bind failure"), "{error}");
        assert_eq!(outcomes[2].commits(), 4, "block 3 commits every task");
        let expected = (100..164).chain(300..304).fold(0, step);
        assert_eq!(value, Some(Value::int(expected)));
    }

    /// Flags shared by [`HoldOneTaskBatch`] and the test driving it.
    #[derive(Debug, Default)]
    struct Hold {
        held: AtomicBool,
        release: AtomicBool,
    }

    /// FIFO dispatch that holds the worker of a one-task batch in
    /// `next_task` until `release` is set, raising `held` once it waits.
    /// The held worker has begun no attempt, so it pins no history.
    #[derive(Debug)]
    struct HoldOneTaskBatch(Arc<Hold>);

    impl SchedulePolicy for HoldOneTaskBatch {
        fn name(&self) -> &'static str {
            "hold-one-task-batch"
        }

        fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
            let inner = Fifo.bind(tasks, workers);
            if tasks != 1 {
                return inner;
            }
            Box::new(Held(Arc::clone(&self.0), inner))
        }
    }

    struct Held(Arc<Hold>, Box<dyn TaskSource>);

    impl TaskSource for Held {
        fn next_task(&self, worker: usize) -> Option<Dispatch> {
            self.0.held.store(true, Ordering::Release);
            wait_for(|| self.0.release.load(Ordering::Acquire));
            self.1.next_task(worker)
        }

        fn on_abort(&self, worker: usize, task: usize, attempt: u32) -> BackoffHint {
            self.1.on_abort(worker, task, attempt)
        }

        fn stats(&self) -> SchedStats {
            self.1.stats()
        }
    }

    /// Polls `cond` for up to 10 s; whether it came true.
    fn wait_for(cond: impl Fn() -> bool) -> bool {
        let t0 = Instant::now();
        while !cond() {
            if t0.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn each_block_counts_only_its_own_history_reclaimed() {
        // Block 1's worker is held before its one task while block 2's
        // three commits prune `y`'s history: those prunes are block
        // 2's, however long block 1 stays in flight around them.
        let mut store = Store::new();
        let y = store.alloc("y", Value::int(0));
        let hold = Arc::new(Hold::default());
        let janus = janus(1).schedule(Arc::new(HoldOneTaskBatch(Arc::clone(&hold))));
        let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
        exec.submit(counter_tasks(y, 1, 1));
        assert!(wait_for(|| hold.held.load(Ordering::Acquire)));
        exec.submit(counter_tasks(y, 3, 1));
        let committed = wait_for(|| exec.value(y) == Some(Value::int(3)));
        hold.release.store(true, Ordering::Release);
        let outcomes = exec.drain();
        assert!(committed, "block 2 committed while block 1 was held");
        let reclaimed: Vec<u64> = outcomes
            .iter()
            .map(|o| o.batch.as_ref().expect("block ran").stats.history_reclaimed)
            .collect();
        let (store, report, _) = exec.finish();
        assert_eq!(store.value(y), Some(&Value::int(4)));
        let pruned: u64 = report.0.iter().map(|s| s.pruned).sum();
        assert!(reclaimed[1] > 0, "block 2's commits prune history");
        assert_eq!(
            reclaimed.iter().sum::<u64>(),
            pruned,
            "per-block reclaimed {reclaimed:?} against {pruned} pruned"
        );
    }

    #[test]
    fn blocks_draw_their_task_ids_in_submission_order() {
        // Fault-plan subjects are task ids, so a seeded service run
        // fails the same tasks only if block N's ids precede block
        // N+1's however the two in-flight pool jobs are scheduled.
        for _ in 0..20 {
            let mut store = Store::new();
            let acct = store.alloc("acct", Value::int(0));
            let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
            let outcomes =
                exec.execute_blocks((0..500).map(|_| counter_tasks(acct, 2, 1)).collect());
            for o in &outcomes {
                let first_tid = o.batch.as_ref().expect("block committed").first_tid;
                assert_eq!(first_tid, 1 + 2 * (o.seq - 1), "block {}", o.seq);
            }
        }
    }

    #[test]
    fn value_agrees_with_the_session_store_after_a_pipelined_stream() {
        let mut store = Store::new();
        let accts: Vec<LocId> = (0..16)
            .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
            .collect();
        let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
        let blocks: Vec<Vec<Task>> = (0..8)
            .map(|b| {
                accts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + b) % 3 != 0)
                    .map(|(i, &loc)| Task::new(move |tx| tx.add(loc, i as i64 + 1)))
                    .collect()
            })
            .collect();
        exec.execute_blocks(blocks);
        let snapshot = exec.session.store();
        for &loc in &accts {
            assert_eq!(exec.value(loc).as_ref(), snapshot.value(loc));
        }
        assert_eq!(exec.value(LocId(u64::MAX)), None, "unallocated location");
    }
}

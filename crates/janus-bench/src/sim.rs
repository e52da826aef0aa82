//! A virtual-time multicore simulator for the Figure 7 protocol.
//!
//! The paper's speedup experiment (Figure 9) needs a multicore machine;
//! this reproduction may run in a single-core container, where real
//! threads cannot overlap. Per the substitution policy in DESIGN.md, the
//! simulator keeps everything *semantically* real — every task body,
//! conflict check and commit replay executes against the real store with
//! the real detector, and their costs are measured with a monotonic
//! clock — while the parallel timeline is simulated: `T` virtual threads
//! pick tasks, snapshot the store at their virtual begin time, and commit
//! through a serialized virtual lock, exactly as `RUNTASK`/`COMMIT`
//! prescribe.
//!
//! What the simulator preserves (because it is computed, not modelled):
//! which transactions conflict, how often they retry, how much work is
//! re-executed, and how much commit serialization the detector forces.
//! What it idealizes: cache interference and memory bandwidth between
//! cores (absent), and scheduler noise (absent).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use janus_core::{SnapshotState, Store, Task};
use janus_detect::ConflictDetector;
use janus_log::{CommittedLog, HistoryWindow};

/// Results of one simulated run.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Virtual wall-clock time of the parallel region, in seconds.
    pub virtual_wall: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub retries: u64,
}

/// An in-flight transaction awaiting its (virtual) completion.
struct Pending {
    finish: f64,
    thread: usize,
    task_idx: usize,
    /// Clock value at snapshot time: commits numbered below it are in the
    /// snapshot, commits at or above it form the conflict history.
    begin_clock: u64,
    snapshot: SnapshotState,
    /// The transaction's log, decomposed once when the body finished.
    log: CommittedLog,
}

/// Orders pendings by completion time (earliest first via `Reverse`).
struct ByFinish(Pending);

impl PartialEq for ByFinish {
    fn eq(&self, other: &Self) -> bool {
        self.0.finish == other.0.finish && self.0.thread == other.0.thread
    }
}
impl Eq for ByFinish {}
impl PartialOrd for ByFinish {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByFinish {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .finish
            .total_cmp(&other.0.finish)
            .then(self.0.thread.cmp(&other.0.thread))
    }
}

/// Measures the sequential (single-pass, no protocol) execution time of
/// the tasks — the Figure 9 baseline.
pub fn sequential_baseline(store: Store, tasks: &[Task]) -> (Store, f64) {
    let started = Instant::now();
    let mut current = store;
    for task in tasks {
        let mut tx = current.begin();
        task.run(&mut tx);
        let log = tx.into_log();
        current.apply_log(&log);
    }
    (current, started.elapsed().as_secs_f64())
}

/// Simulates a parallel run of `tasks` over `store` on `threads` virtual
/// threads under `detector`, with in-order commits if `ordered`.
///
/// Returns the final store (which equals a real parallel run's — the
/// protocol semantics are identical) and the timing metrics.
pub fn simulate(
    store: Store,
    tasks: &[Task],
    detector: &Arc<dyn ConflictDetector>,
    threads: usize,
    ordered: bool,
) -> (Store, SimMetrics) {
    let mut store = store;
    let mut heap: BinaryHeap<Reverse<ByFinish>> = BinaryHeap::new();
    let mut waiting: Vec<Pending> = Vec::new();
    // Commit logs in commit order: `committed[v - 1]` is the log of the
    // transaction that moved the clock from `v` to `v + 1`, each
    // pre-decomposed once at (virtual) commit time. Windows are
    // clock-based, as in the real protocol — virtual timestamps only
    // shape the timeline.
    let mut committed: Vec<Arc<CommittedLog>> = Vec::new();
    let mut clock: u64 = 1;
    let mut lock_free_at = 0.0f64;
    let mut next_task = 0usize;
    let mut metrics = SimMetrics {
        virtual_wall: 0.0,
        commits: 0,
        retries: 0,
    };

    let start_task = |store: &Store, task_idx: usize, thread: usize, at: f64, begin_clock: u64| {
        let snapshot = store.snapshot_state();
        let mut tx = store.begin();
        let t0 = Instant::now();
        tasks[task_idx].run(&mut tx);
        let d = t0.elapsed().as_secs_f64();
        Pending {
            finish: at + d,
            thread,
            task_idx,
            begin_clock,
            snapshot,
            log: CommittedLog::new(tx.into_log()),
        }
    };

    let initial = threads.min(tasks.len());
    for thread in 0..initial {
        let p = start_task(&store, next_task, thread, 0.0, clock);
        next_task += 1;
        heap.push(Reverse(ByFinish(p)));
    }

    while let Some(Reverse(ByFinish(p))) = heap.pop() {
        let now = p.finish;
        // In-order execution: wait until all preceding transactions have
        // committed (woken on the next commit).
        if ordered && p.task_idx as u64 + 1 != clock {
            waiting.push(p);
            continue;
        }
        // GETCOMMITTEDHISTORY(t.Begin, now), clock-indexed — a zero-copy
        // window over the shared pre-decomposed segments.
        let window = HistoryWindow::new(&committed[(p.begin_clock - 1) as usize..]);
        let t0 = Instant::now();
        let conflict = detector.detect(&p.snapshot, &p.log, window);
        let now = now + t0.elapsed().as_secs_f64();

        if conflict {
            metrics.retries += 1;
            let thread = p.thread;
            let task_idx = p.task_idx;
            let p = start_task(&store, task_idx, thread, now, clock);
            heap.push(Reverse(ByFinish(p)));
            continue;
        }

        // COMMIT through the serialized virtual write lock.
        let commit_start = now.max(lock_free_at);
        let t0 = Instant::now();
        store.apply_log(p.log.ops());
        let replay = t0.elapsed().as_secs_f64();
        let commit_time = commit_start + replay;
        committed.push(Arc::new(p.log));
        lock_free_at = commit_time;
        clock += 1;
        metrics.commits += 1;
        metrics.virtual_wall = metrics.virtual_wall.max(commit_time);

        // Wake the next ordered waiter, if it is now eligible.
        if ordered {
            if let Some(pos) = waiting.iter().position(|w| w.task_idx as u64 + 1 == clock) {
                let mut w = waiting.remove(pos);
                w.finish = w.finish.max(commit_time);
                heap.push(Reverse(ByFinish(w)));
            }
        }

        // The freed thread picks the next task.
        if next_task < tasks.len() {
            let p = start_task(&store, next_task, p.thread, commit_time, clock);
            next_task += 1;
            heap.push(Reverse(ByFinish(p)));
        }
    }

    debug_assert!(waiting.is_empty(), "ordered waiters must all be woken");
    (store, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_detect::{SequenceDetector, WriteSetDetector};
    use janus_relational::Value;

    fn identity_setup(n: i64) -> (Store, Vec<Task>, janus_log::LocId) {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks: Vec<Task> = (1..=n)
            .map(|w| {
                Task::new(move |tx: &mut janus_core::TxView| {
                    tx.add(work, w);
                    janus_workloads::local_work(20_000);
                    tx.add(work, -w);
                })
            })
            .collect();
        (store, tasks, work)
    }

    /// The least of three measurements. Timelines are built from
    /// measured CPU time, and tests running in parallel on the same
    /// cores can preempt any single run and inflate it.
    fn least_of_3(mut measure: impl FnMut() -> f64) -> f64 {
        (0..3).map(|_| measure()).fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn simulated_final_state_matches_sequential() {
        let (store, tasks, work) = identity_setup(12);
        let det: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
        let (final_store, metrics) = simulate(store, &tasks, &det, 4, false);
        assert_eq!(final_store.value(work), Some(&Value::int(0)));
        assert_eq!(metrics.commits, 12);
        assert_eq!(metrics.retries, 0, "identity tasks must not conflict");
    }

    #[test]
    fn sequence_detection_yields_virtual_speedup() {
        let (store, tasks, _) = identity_setup(16);
        let baseline = least_of_3(|| sequential_baseline(store.clone(), &tasks).1);
        let det: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
        let wall = least_of_3(|| {
            simulate(store.clone(), &tasks, &det, 4, false)
                .1
                .virtual_wall
        });
        let speedup = baseline / wall;
        // Conservative threshold: the sim measures real CPU times, which
        // are noisy when the test box is loaded.
        assert!(
            speedup > 1.2,
            "4 virtual threads over identity tasks should speed up, got {speedup:.2}"
        );
    }

    #[test]
    fn write_set_detection_serializes_in_virtual_time() {
        let (store, tasks, _) = identity_setup(16);
        let baseline = least_of_3(|| sequential_baseline(store.clone(), &tasks).1);
        let det: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
        let wall = least_of_3(|| {
            let (_, metrics) = simulate(store.clone(), &tasks, &det, 4, false);
            assert!(metrics.retries > 0, "write-set must abort identity tasks");
            metrics.virtual_wall
        });
        let speedup = baseline / wall;
        assert!(
            speedup < 1.5,
            "write-set retries should burn the parallelism, got {speedup:.2}"
        );
    }

    #[test]
    fn ordered_simulation_matches_sequential_state() {
        // Order-sensitive read-modify-write tasks.
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(1));
        let mk_tasks = || -> Vec<Task> {
            (1..=6)
                .map(|i| {
                    Task::new(move |tx: &mut janus_core::TxView| {
                        let v = tx.read_int(x);
                        tx.write(x, v * 3 + i);
                    })
                })
                .collect()
        };
        let (seq_store, _) = Janus::run_sequential(store.clone(), &mk_tasks());
        let det: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
        let (sim_store, metrics) = simulate(store, &mk_tasks(), &det, 3, true);
        assert_eq!(sim_store.value(x), seq_store.value(x));
        assert_eq!(metrics.commits, 6);
    }

    #[test]
    fn one_virtual_thread_is_serial() {
        let (store, tasks, work) = identity_setup(5);
        let det: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
        let (final_store, metrics) = simulate(store, &tasks, &det, 1, false);
        assert_eq!(final_store.value(work), Some(&Value::int(0)));
        assert_eq!(metrics.retries, 0, "no concurrency, no conflicts");
    }
}

//! Scheduling-policy equivalence under high contention: whatever policy
//! dispatches the tasks, the protocol's outcome guarantees are unchanged.
//!
//! * Commutative (add-only) task sets: every policy commits all tasks
//!   and lands on exactly the sequential final store, for random thread
//!   counts and hotspot skews.
//! * Order-sensitive tasks under `ordered(true)`: every policy equals
//!   the sequential outcome bit for bit.

use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::WriteSetDetector;
use janus::relational::Value;
use janus::sched::{Fifo, SchedulePolicy};
use proptest::prelude::*;

/// One add-only task: bump location `loc` by `delta`. Addition commutes,
/// so any commit order yields the sequential sums.
#[derive(Debug, Clone, Copy)]
struct AddTask {
    loc: usize,
    delta: i64,
}

/// Skewed task generator: with probability `hot_pct`% a task hits
/// location 0 (the hotspot); otherwise one of `cold` cold locations.
fn add_task_strategy(cold: usize) -> impl Strategy<Value = AddTask> {
    (0u32..100, 0usize..cold.max(1), -5i64..6).prop_map(move |(roll, c, delta)| AddTask {
        loc: if roll < 70 { 0 } else { 1 + c },
        delta,
    })
}

/// Every policy the runtime can be configured with.
fn policies() -> Vec<(&'static str, Arc<dyn SchedulePolicy>)> {
    vec![("fifo", Arc::new(Fifo))]
}

fn run_policy(
    tasks: &[AddTask],
    n_locs: usize,
    threads: usize,
    policy: Arc<dyn SchedulePolicy>,
) -> (u64, Vec<i64>) {
    let mut store = Store::new();
    let locs: Vec<_> = (0..n_locs)
        .map(|i| store.alloc(format!("l{i}").as_str(), Value::int(0)))
        .collect();
    let built: Vec<Task> = tasks
        .iter()
        .map(|&t| {
            let loc = locs[t.loc];
            Task::new(move |tx: &mut TxView| {
                // Read-modify-write rather than a commuting `add`, so
                // overlapping hot tasks genuinely conflict under
                // write-set detection and exercise retry scheduling.
                let v = tx.read_int(loc);
                tx.write(loc, v + t.delta);
            })
        })
        .collect();
    let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(threads)
        .schedule(policy)
        .run(store, built);
    let finals = locs
        .iter()
        .map(|&l| outcome.store.value(l).and_then(Value::as_int).expect("int"))
        .collect();
    (outcome.stats.commits, finals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_policy_commits_all_tasks_to_the_sequential_sums(
        tasks in proptest::collection::vec(add_task_strategy(3), 1..24),
        threads in 1usize..5,
    ) {
        let n_locs = 4;
        // Addition commutes: the expected final store is the per-location
        // sum regardless of commit order.
        let mut expected = vec![0i64; n_locs];
        for t in &tasks {
            expected[t.loc] += t.delta;
        }
        for (label, policy) in policies() {
            let (commits, finals) = run_policy(&tasks, n_locs, threads, policy);
            prop_assert_eq!(commits, tasks.len() as u64, "{}: all tasks commit", label);
            prop_assert_eq!(&finals, &expected, "{} @ {} threads", label, threads);
        }
    }

    #[test]
    fn ordered_runs_match_sequential_under_every_policy(
        deltas in proptest::collection::vec(1i64..7, 1..12),
        threads in 1usize..5,
    ) {
        // Order-sensitive hot chain: x := x * 3 + d. Only the submission
        // order produces the sequential value, so ordered commit must
        // hold under every policy.
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(1));
        let build = |deltas: &[i64]| -> Vec<Task> {
            deltas
                .iter()
                .map(|&d| {
                    Task::new(move |tx: &mut TxView| {
                        let v = tx.read_int(x);
                        tx.write(x, v.wrapping_mul(3).wrapping_add(d));
                    })
                })
                .collect()
        };
        let (seq_store, _) = Janus::run_sequential(store.clone(), &build(&deltas));
        let expected = seq_store.value(x).and_then(Value::as_int).expect("int");
        for (label, policy) in policies() {
            let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
                .threads(threads)
                .ordered(true)
                .schedule(Arc::clone(&policy))
                .run(store.clone(), build(&deltas));
            prop_assert_eq!(outcome.stats.commits, deltas.len() as u64, "{}", label);
            let got = outcome.store.value(x).and_then(Value::as_int).expect("int");
            prop_assert_eq!(got, expected, "{} @ {} threads", label, threads);
        }
    }
}

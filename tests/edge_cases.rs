//! Edge cases of the public API: empty task lists, single tasks,
//! degenerate inputs, thread counts exceeding tasks, GC under ordered
//! contention.

use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::{SequenceDetector, WriteSetDetector};
use janus::relational::Value;
use janus::workloads::{all_workloads, InputSpec};

#[test]
fn empty_task_list() {
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(7));
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(4)
        .run(store, Vec::new());
    assert_eq!(outcome.stats.commits, 0);
    assert_eq!(outcome.stats.retries, 0);
    assert_eq!(outcome.store.value(x), Some(&Value::int(7)));
}

#[test]
fn single_task_many_threads() {
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(0));
    let tasks = vec![Task::new(move |tx: &mut TxView| tx.add(x, 1))];
    let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(8)
        .run(store, tasks);
    assert_eq!(outcome.stats.commits, 1);
    assert_eq!(outcome.store.value(x), Some(&Value::int(1)));
}

#[test]
fn more_threads_than_tasks_ordered() {
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(0));
    let tasks: Vec<Task> = (0..3)
        .map(|i| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(x);
                tx.write(x, v * 10 + i);
            })
        })
        .collect();
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(8)
        .ordered(true)
        .run(store, tasks);
    assert_eq!(outcome.store.value(x), Some(&Value::int(12)));
}

#[test]
fn task_with_no_shared_accesses() {
    let mut store = Store::new();
    let _x = store.alloc("x", Value::int(0));
    let tasks: Vec<Task> = (0..4)
        .map(|_| Task::new(|_tx: &mut TxView| { /* pure compute */ }))
        .collect();
    let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(2)
        .run(store, tasks);
    assert_eq!(outcome.stats.commits, 4);
    assert_eq!(outcome.stats.retries, 0, "empty logs never conflict");
}

#[test]
fn workloads_accept_tiny_inputs() {
    for w in all_workloads() {
        for scale in [1usize, 2] {
            let scenario = w.build(&InputSpec::new(scale, 1, 5));
            assert_eq!(scenario.tasks.len(), scale, "{}", w.name());
            let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
            assert!(
                (scenario.check)(&final_store),
                "{} @ scale {scale}",
                w.name()
            );
        }
    }
}

#[test]
fn gc_with_ordered_contention() {
    // Ordered mode keeps early begins alive while successors wait; GC
    // must respect the horizon and the run must stay correct.
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(1));
    let tasks: Vec<Task> = (1..=20)
        .map(|i| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(x);
                tx.write(x, v.wrapping_mul(3).wrapping_add(i));
            })
        })
        .collect();
    let seq_tasks: Vec<Task> = (1..=20)
        .map(|i| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(x);
                tx.write(x, v.wrapping_mul(3).wrapping_add(i));
            })
        })
        .collect();
    let (seq_store, _) = Janus::run_sequential(store.clone(), &seq_tasks);
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(4)
        .ordered(true)
        .run(store, tasks);
    assert_eq!(outcome.store.value(x), seq_store.value(x));
}

#[test]
fn repeated_runs_share_one_detector() {
    // A detector is reusable across runs; stats accumulate.
    let detector = Arc::new(SequenceDetector::new());
    for round in 0..3 {
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(0));
        let tasks: Vec<Task> = (0..5)
            .map(|_| Task::new(move |tx: &mut TxView| tx.add(x, 1)))
            .collect();
        let outcome = Janus::new(Arc::clone(&detector) as Arc<_>)
            .threads(2)
            .run(store, tasks);
        assert_eq!(
            outcome.store.value(x),
            Some(&Value::int(5)),
            "round {round}"
        );
    }
}

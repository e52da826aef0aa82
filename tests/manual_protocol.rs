//! Driving the protocol manually through the low-level `Store` API —
//! the hooks external schedulers (like the bench simulator) build on.

use std::sync::Arc;

use janus::adt::MapAdt;
use janus::core::{Janus, Store, Task, TxView};
use janus::detect::{ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::relational::{Scalar, Value};

#[test]
fn manual_begin_detect_commit_cycle() {
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(0));

    // Transaction 1 executes against a snapshot...
    let mut tx1 = store.begin();
    tx1.add(x, 5);
    let entry1 = store.snapshot_state();
    let log1 = tx1.into_log();

    // ...transaction 2 starts concurrently (same snapshot era)...
    let mut tx2 = store.begin();
    tx2.add(x, 7);
    let entry2 = store.snapshot_state();
    let log2 = tx2.into_log();

    // ...t1 commits first.
    let det = SequenceDetector::new();
    assert!(!det.detect_ops(&entry1, &log1, &[]), "empty history: valid");
    store.apply_log(&log1);

    // t2's conflict history is t1's log; blind adds commute.
    assert!(!det.detect_ops(&entry2, &log2, &log1));
    store.apply_log(&log2);

    assert_eq!(store.value(x), Some(&Value::int(12)));
}

#[test]
fn manual_cycle_detects_real_conflicts() {
    let mut store = Store::new();
    let x = store.alloc("x", Value::int(0));

    let mut tx1 = store.begin();
    let v = tx1.read_int(x);
    tx1.write(x, v + 1);
    let entry1 = store.snapshot_state();
    let log1 = tx1.into_log();

    let mut tx2 = store.begin();
    let v = tx2.read_int(x);
    tx2.write(x, v + 1);
    let entry2 = store.snapshot_state();
    let log2 = tx2.into_log();

    let det = SequenceDetector::new();
    assert!(!det.detect_ops(&entry1, &log1, &[]));
    store.apply_log(&log1);

    // t2 read x before t1's increment: lost update, must conflict.
    assert!(det.detect_ops(&entry2, &log2, &log1));
    let _ = entry2;
}

#[test]
fn apply_log_groups_per_location() {
    let mut store = Store::new();
    let m = MapAdt::alloc(&mut store, "m");
    let c = store.alloc("c", Value::int(0));
    let mut tx = store.begin();
    for i in 0..50i64 {
        m.put(&mut tx, i, i * 2);
        tx.add(c, 1);
    }
    let log = tx.into_log();
    store.apply_log(&log);
    assert_eq!(store.value(c), Some(&Value::int(50)));
    assert_eq!(m.entries(&store).len(), 50);
    assert_eq!(m.entries(&store)[10], (Scalar::Int(10), Scalar::Int(20)));
}

#[test]
fn persistent_privatization_lands_every_put() {
    // Every transaction privatizes an O(1) persistent snapshot of a
    // 200-entry map; concurrent puts of fresh keys must all land, with
    // the preloaded entries untouched.
    let mut store = Store::new();
    let m = MapAdt::alloc_with(
        &mut store,
        "m",
        (0..200i64).map(|i| (Scalar::Int(i), Scalar::Int(i))),
    );
    let tasks: Vec<Task> = (0..10i64)
        .map(|i| {
            let m = m.clone();
            Task::new(move |tx: &mut TxView| {
                m.put(tx, 1000 + i, i);
            })
        })
        .collect();
    let outcome = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(3)
        .run(store, tasks);
    assert_eq!(outcome.stats.commits, 10);
    let entries = m.entries(&outcome.store);
    assert_eq!(entries.len(), 210, "all puts landed");
    assert_eq!(entries[10], (Scalar::Int(10), Scalar::Int(10)));
    assert!(entries.contains(&(Scalar::Int(1009), Scalar::Int(9))));
}

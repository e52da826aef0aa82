//! The §2 pattern catalog, end to end: each commutative pattern is
//! trained, then run under the cached detector with forced transaction
//! overlap, and must commit with zero retries — while a genuinely
//! non-commutative variant must still be caught.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use janus::adt::{Cell, Counter, MaxRegister};
use janus::core::{Janus, Store, Task, TxView};
use janus::detect::{CachedSequenceDetector, RelaxationSpec};
use janus::relational::Scalar;
use janus::train::{train, TrainConfig};

/// A one-shot start gate: blocks until every task has begun at least
/// once, then stays open. Unlike a `Barrier`, *retried* executions pass
/// straight through (a retried transaction re-runs its body, and a
/// reusable barrier would deadlock waiting for arrivals that never
/// come).
struct StartGate {
    arrived: Vec<AtomicBool>,
    count: AtomicUsize,
}

impl StartGate {
    fn new(n: usize) -> Self {
        StartGate {
            arrived: (0..n).map(|_| AtomicBool::new(false)).collect(),
            count: AtomicUsize::new(0),
        }
    }

    fn wait(&self, i: usize) {
        if !self.arrived[i].swap(true, Ordering::SeqCst) {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
        while self.count.load(Ordering::SeqCst) < self.arrived.len() {
            std::thread::yield_now();
        }
    }
}

/// Builds tasks that all start together (the gate pins the overlap, so
/// conflict queries really happen even on one core).
fn overlapping_tasks(
    n: usize,
    body: impl Fn(usize, &mut TxView) + Send + Sync + 'static,
) -> Vec<Task> {
    let body = Arc::new(body);
    let gate = Arc::new(StartGate::new(n));
    (0..n)
        .map(|i| {
            let body = Arc::clone(&body);
            let gate = Arc::clone(&gate);
            Task::new(move |tx: &mut TxView| {
                gate.wait(i);
                body(i, tx);
            })
        })
        .collect()
}

/// Trains on a small sequential run of the same shape, then runs the
/// overlapping tasks under the cached detector.
fn train_and_run(
    store: Store,
    train_tasks: Vec<Task>,
    run_tasks: Vec<Task>,
    relax: RelaxationSpec,
) -> (janus::core::Outcome, u64) {
    let (_, training_run) = Janus::run_sequential(store.clone(), &train_tasks);
    let (cache, _) = train(&[training_run], TrainConfig::default());
    let detector = Arc::new(CachedSequenceDetector::with_relaxations(
        cache.freeze(),
        relax,
    ));
    let outcome = Janus::new(detector.clone())
        .threads(4)
        .run(store, run_tasks);
    let retries = outcome.stats.retries;
    (outcome, retries)
}

#[test]
fn identity_pattern_commits_without_retries() {
    let mut store = Store::new();
    let work = Counter::alloc(&mut store, "work", 0);
    let body = move |i: usize, tx: &mut TxView| {
        let w = i as i64 + 1;
        work.add(tx, w);
        janus::workloads::local_work(20_000);
        work.sub(tx, w);
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (outcome, retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new(),
    );
    assert_eq!(retries, 0, "identity transactions must not abort");
    assert_eq!(work.value(&outcome.store), 0);
}

#[test]
fn reduction_pattern_commits_without_retries() {
    let mut store = Store::new();
    let total = Counter::alloc(&mut store, "total", 0);
    let body = move |i: usize, tx: &mut TxView| {
        total.add(tx, i as i64 + 1);
        janus::workloads::local_work(20_000);
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (outcome, retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new(),
    );
    assert_eq!(retries, 0, "reductions commute");
    assert_eq!(total.value(&outcome.store), 1 + 2 + 3 + 4);
}

#[test]
fn shared_as_local_pattern_with_inference() {
    let mut store = Store::new();
    let scratch = Cell::alloc(&mut store, "ctx.scratch", 0i64);
    let body = move |i: usize, tx: &mut TxView| {
        scratch.set(tx, i as i64);
        janus::workloads::local_work(20_000);
        let v = scratch.get(tx); // covered read
        assert_eq!(v, Scalar::Int(i as i64), "reads own write");
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (_, retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new().with_ooo_inference(),
    );
    assert_eq!(retries, 0, "covered-read WAW chains tolerated out of order");
}

#[test]
fn equal_writes_pattern_commits_without_retries() {
    let mut store = Store::new();
    let flag = Cell::alloc(&mut store, "flag", 0i64);
    let body = move |_i: usize, tx: &mut TxView| {
        flag.set(tx, 7i64); // everyone writes the same value
        janus::workloads::local_work(20_000);
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (outcome, retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new(),
    );
    assert_eq!(retries, 0, "equal writes commute");
    assert_eq!(flag.value(&outcome.store), Scalar::Int(7));
}

#[test]
fn max_register_pattern_commits_without_retries() {
    let mut store = Store::new();
    let max = MaxRegister::alloc(&mut store, "maxColor", 0);
    let body = move |i: usize, tx: &mut TxView| {
        max.bump(tx, (i as i64 * 13) % 17);
        janus::workloads::local_work(20_000);
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (outcome, retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new(),
    );
    assert_eq!(retries, 0, "blind max updates commute");
    assert_eq!(max.value(&outcome.store), 13);
}

#[test]
fn unequal_writes_are_still_caught() {
    // The negative control: same shape as equal-writes but with
    // different values — the cached detector must serialize them and the
    // final value must be one of the written values.
    let mut store = Store::new();
    let cell = Cell::alloc(&mut store, "cell", 0i64);
    let body = move |i: usize, tx: &mut TxView| {
        cell.set(tx, i as i64 + 1);
        janus::workloads::local_work(20_000);
    };
    let train_tasks: Vec<Task> = (0..3)
        .map(|i| Task::new(move |tx: &mut TxView| body(i, tx)))
        .collect();
    let (outcome, _retries) = train_and_run(
        store,
        train_tasks,
        overlapping_tasks(4, body),
        RelaxationSpec::new(),
    );
    let v = cell.value(&outcome.store);
    assert!(matches!(v, Scalar::Int(1..=4)), "some write won: {v:?}");
    assert_eq!(
        outcome.stats.commits, 4,
        "all transactions eventually commit"
    );
}

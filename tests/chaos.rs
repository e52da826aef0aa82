//! Chaos harness: randomized fault injection against the full runtime.
//!
//! For any random task mix, thread count, fault seed and fault rate, a
//! run under `PanicPolicy::Isolate` must (1) never hang, (2) keep its
//! lifecycle trace well-formed, and (3) leave the committed state equal
//! to a *sequential* execution of exactly the tasks that did not fail —
//! injected panics take tasks out, but never corrupt what the survivors
//! committed. Unordered cases use add-only (commutative) tasks so the
//! surviving-subset replay is order-independent; ordered cases use
//! order-dependent read-modify-writes and rely on commit order.

use std::collections::HashSet;
use std::sync::Arc;

use janus::core::{Janus, PanicPolicy, Store, Task, TxView};
use janus::detect::SequenceDetector;
use janus::fault::{silence_injected_panics, FaultKind, FaultPlan};
use janus::obs::Recorder;
use janus::relational::Value;
use proptest::prelude::*;

const LOCS: usize = 3;

/// One task spec: the `(location index, delta)` accesses it performs.
type Spec = Vec<(usize, i64)>;
/// Task constructor: builds the workload from specs + allocated locations.
type MkTasks = fn(&[Spec], &[janus::log::LocId]) -> Vec<Task>;

fn alloc_locs(store: &mut Store) -> Vec<janus::log::LocId> {
    (0..LOCS)
        .map(|i| store.alloc(format!("l{i}").as_str(), Value::int(0)))
        .collect()
}

/// Add-only tasks: commutative, so any committed subset reaches the
/// same state in any order.
fn add_tasks(specs: &[Spec], locs: &[janus::log::LocId]) -> Vec<Task> {
    specs
        .iter()
        .map(|accesses| {
            let accesses = accesses.clone();
            let locs = locs.to_vec();
            Task::new(move |tx: &mut TxView| {
                for &(i, d) in &accesses {
                    tx.add(locs[i], d);
                }
            })
        })
        .collect()
}

/// Order-dependent tasks: each access reads the location and writes a
/// value that depends on what it read.
fn rmw_tasks(specs: &[Spec], locs: &[janus::log::LocId]) -> Vec<Task> {
    specs
        .iter()
        .map(|accesses| {
            let accesses = accesses.clone();
            let locs = locs.to_vec();
            Task::new(move |tx: &mut TxView| {
                for &(i, d) in &accesses {
                    let v = tx.read_int(locs[i]);
                    tx.write(locs[i], v * 2 + d);
                }
            })
        })
        .collect()
}

/// Runs the chaos configuration and checks trace shape, task
/// accounting, and surviving-subset equivalence against a sequential
/// replay of the non-failed tasks.
fn check_chaos(
    specs: &[Spec],
    ordered: bool,
    threads: usize,
    fault_seed: u64,
    rate_pct: u32,
    mk: MkTasks,
) {
    silence_injected_panics();
    let mut store = Store::new();
    let locs = alloc_locs(&mut store);
    let recorder = Recorder::new();
    let outcome = Janus::new(Arc::new(SequenceDetector::new()))
        .threads(threads)
        .ordered(ordered)
        .panic_policy(PanicPolicy::Isolate)
        .faults(Arc::new(FaultPlan::seeded(
            fault_seed,
            f64::from(rate_pct) / 100.0,
        )))
        .recorder(Arc::clone(&recorder))
        .run(store, mk(specs, &locs));

    let trace = recorder.finish();
    prop_assert!(
        trace.check_well_formed().is_ok(),
        "ill-formed trace: {:?}",
        trace.check_well_formed()
    );
    // Every task either committed or was isolated — none lost, none run
    // twice.
    prop_assert_eq!(
        outcome.stats.commits + outcome.stats.tasks_failed,
        specs.len() as u64
    );
    prop_assert_eq!(outcome.failed.len() as u64, outcome.stats.tasks_failed);

    // The committed state equals a sequential execution of exactly the
    // non-failed tasks (in task order, which ordered mode preserves and
    // the commutative unordered workload cannot observe).
    let failed: HashSet<u64> = outcome.failed.iter().map(|f| f.task).collect();
    let surviving: Vec<Spec> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| !failed.contains(&((i + 1) as u64)))
        .map(|(_, s)| s.clone())
        .collect();
    let mut seq_store = Store::new();
    let seq_locs = alloc_locs(&mut seq_store);
    let (seq_store, _) = Janus::run_sequential(seq_store, &mk(&surviving, &seq_locs));
    for (par, seq) in locs.iter().zip(&seq_locs) {
        prop_assert_eq!(
            outcome.store.value(*par),
            seq_store.value(*seq),
            "committed state diverges from the surviving subset"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unordered chaos: commutative tasks.
    #[test]
    fn unordered_chaos_equals_sequential_surviving_subset(
        specs in proptest::collection::vec(
            proptest::collection::vec((0usize..LOCS, -3i64..4), 0..4),
            0..8,
        ),
        threads in 1usize..=4,
        fault_seed in 0u64..256,
        rate_pct in 0u32..=40,
    ) {
        check_chaos(&specs, false, threads, fault_seed, rate_pct, add_tasks);
    }

    /// Ordered chaos: order-dependent tasks; failed turns must be
    /// released so successors commit, and the survivors' commit order
    /// must match task order.
    #[test]
    fn ordered_chaos_equals_sequential_surviving_subset(
        specs in proptest::collection::vec(
            proptest::collection::vec((0usize..LOCS, -3i64..4), 0..4),
            0..8,
        ),
        threads in 1usize..=4,
        fault_seed in 0u64..256,
        rate_pct in 0u32..=40,
    ) {
        check_chaos(&specs, true, threads, fault_seed, rate_pct, rmw_tasks);
    }
}

/// Same seed, same plan: the injected-fault decision is a pure function
/// of `(seed, kind, subject, attempt)`, so two plans built alike agree
/// on every site.
#[test]
fn same_seed_same_injected_site_sequence() {
    let a = FaultPlan::seeded(42, 0.2);
    let b = FaultPlan::seeded(42, 0.2);
    for kind in [
        FaultKind::TaskPanic,
        FaultKind::ForcedConflict,
        FaultKind::CommitStall,
        FaultKind::CacheMiss,
    ] {
        for subject in 0..128u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    a.decide(kind, subject, attempt),
                    b.decide(kind, subject, attempt),
                    "plans with the same seed disagree at ({kind:?}, {subject}, {attempt})"
                );
            }
        }
    }
}

/// End-to-end determinism on a conflict-free workload: with disjoint
/// locations, each task's attempt sequence depends only on the plan, so
/// two runs with the same seed fail the same tasks after the same
/// number of attempts and retry identically.
#[test]
fn same_seed_fails_the_same_tasks() {
    silence_injected_panics();
    let run = || {
        let mut store = Store::new();
        let locs: Vec<_> = (0..16)
            .map(|i| store.alloc(format!("x{i}").as_str(), Value::int(0)))
            .collect();
        let tasks: Vec<Task> = locs
            .iter()
            .map(|&l| Task::new(move |tx: &mut TxView| tx.add(l, 1)))
            .collect();
        Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .panic_policy(PanicPolicy::Isolate)
            .faults(Arc::new(FaultPlan::seeded(7, 0.3)))
            .run(store, tasks)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.failed, b.failed, "same seed, same failures");
    assert_eq!(a.stats.commits, b.stats.commits);
    assert_eq!(a.stats.retries, b.stats.retries);
    assert_eq!(a.stats.tasks_failed, b.stats.tasks_failed);
}

/// Rate 1.0 is the saturation point: every task's first attempt panics.
/// Both modes must isolate every task and terminate — in ordered mode
/// that means six consecutive released turns.
#[test]
fn saturated_fault_rate_still_terminates() {
    silence_injected_panics();
    for ordered in [false, true] {
        let mut store = Store::new();
        let work = store.alloc("work", Value::int(0));
        let tasks: Vec<Task> = (0..6)
            .map(|_| Task::new(move |tx: &mut TxView| tx.add(work, 1)))
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .ordered(ordered)
            .panic_policy(PanicPolicy::Isolate)
            .faults(Arc::new(FaultPlan::seeded(1, 1.0)))
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 0, "ordered={ordered}");
        assert_eq!(outcome.stats.tasks_failed, 6, "ordered={ordered}");
        assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
    }
}

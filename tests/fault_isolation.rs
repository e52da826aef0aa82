//! Liveness regressions for the failure model.
//!
//! Two hangs the robustness layer must never reintroduce: (1) an
//! ordered run where a middle task panics under `PanicPolicy::Isolate`
//! — unless the failed task releases its commit turn, its successors
//! wait on `turn == tid` forever; (2) a task pair forced to conflict
//! again and again — the pair must still commit once the fault plan
//! stops injecting, with no retry budget to fall back on. Both are
//! exercised under every schedule policy.

use std::sync::Arc;

use janus::core::{Janus, PanicPolicy, Store, Task, TxView};
use janus::detect::SequenceDetector;
use janus::fault::{FaultKind, FaultPlan, FaultSite};
use janus::relational::Value;
use janus::sched::{Fifo, SchedulePolicy};

/// Every policy the runtime can be configured with.
fn policies() -> Vec<(&'static str, Arc<dyn SchedulePolicy>)> {
    vec![("fifo", Arc::new(Fifo))]
}

#[test]
fn ordered_isolate_middle_panic_commits_every_successor() {
    // Order-dependent chain: task i maps x -> 3x + i, so any skipped or
    // reordered successor changes the final value.
    let n = 8u64;
    let panicking = 4u64;
    let mk_store = || {
        let mut store = Store::new();
        let x = store.alloc("x", Value::int(1));
        (store, x)
    };
    // Expected state: the sequential execution of the non-failed subset.
    let (seq_store, x_seq) = mk_store();
    let surviving: Vec<Task> = (1..=n)
        .filter(|&i| i != panicking)
        .map(|i| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(x_seq);
                tx.write(x_seq, v * 3 + i as i64);
            })
        })
        .collect();
    let (seq_store, _) = Janus::run_sequential(seq_store, &surviving);
    let expected = seq_store.value(x_seq).cloned();

    for (name, policy) in policies() {
        let (store, x) = mk_store();
        let tasks: Vec<Task> = (1..=n)
            .map(|i| {
                Task::new(move |tx: &mut TxView| {
                    if i == panicking {
                        panic!("middle task down");
                    }
                    let v = tx.read_int(x);
                    tx.write(x, v * 3 + i as i64);
                })
            })
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(3)
            .ordered(true)
            .schedule(policy)
            .panic_policy(PanicPolicy::Isolate)
            .run(store, tasks);
        assert_eq!(
            outcome.stats.commits,
            n - 1,
            "{name}: every successor of the failed turn must commit"
        );
        assert_eq!(outcome.failed.len(), 1, "{name}");
        assert_eq!(outcome.failed[0].task, panicking, "{name}");
        assert_eq!(
            outcome.store.value(x).cloned(),
            expected,
            "{name}: survivors must commit in task order around the released turn"
        );
    }
}

#[test]
fn a_conflicting_pair_terminates_under_every_policy() {
    // Forced-conflict sites make the pair abort on attempts 0..5
    // regardless of interleaving — a deterministic stand-in for an
    // adversarial contention pattern. Each abort retries at once; the
    // attempt past the last site commits.
    let aborts_per_task = 5u32;
    let sites: Vec<FaultSite> = (1..=2u64)
        .flat_map(|t| {
            (0..aborts_per_task).map(move |a| FaultSite {
                kind: FaultKind::ForcedConflict,
                subject: t,
                attempt: a,
            })
        })
        .collect();
    for (name, policy) in policies() {
        let mut store = Store::new();
        let hot = store.alloc("hot", Value::int(0));
        let tasks: Vec<Task> = (1..=2i64)
            .map(|d| {
                Task::new(move |tx: &mut TxView| {
                    let v = tx.read_int(hot);
                    tx.write(hot, v + d);
                })
            })
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(2)
            .schedule(policy)
            .faults(Arc::new(FaultPlan::from_sites(sites.clone())))
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 2, "{name}: the pair must terminate");
        assert_eq!(
            outcome.stats.retries,
            u64::from(aborts_per_task) * 2,
            "{name}: every forced conflict aborts exactly once"
        );
        assert_eq!(
            outcome.store.value(hot),
            Some(&Value::int(3)),
            "{name}: retried attempts still serialize to the correct sum"
        );
    }
}

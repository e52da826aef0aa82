//! Shard-count equivalence: the sharded store is a pure performance
//! refactor. Whatever the shard count — one shard (the degenerate,
//! globally locked store) through the full 64-hint space — the protocol's
//! observable outcomes are identical:
//!
//! * commutative task sets land on exactly the sequential sums, with all
//!   tasks committed, for random skews, thread counts and detectors;
//! * ordered runs equal the sequential execution bit for bit;
//! * forced-conflict fault sites produce identical, deterministic abort
//!   counts at every shard count;
//! * seeded chaos runs (panics, stalls, forced conflicts under
//!   `PanicPolicy::Isolate`) isolate the same tasks and reach the same
//!   surviving state at every shard count.

use std::sync::Arc;

use janus::core::{Janus, PanicPolicy, Store, Task, TxView};
use janus::detect::{ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::fault::{silence_injected_panics, FaultKind, FaultPlan, FaultSite};
use janus::relational::Value;
use proptest::prelude::*;

/// The shard counts under test: degenerate, tiny, the default, and the
/// full hint space.
const SHARD_COUNTS: [usize; 4] = [1, 2, 8, 64];

/// One add-only task: bump location `loc` by `delta`. Addition commutes,
/// so any commit order yields the sequential sums.
#[derive(Debug, Clone, Copy)]
struct AddTask {
    loc: usize,
    delta: i64,
}

/// Skewed task generator: with probability ~60% a task hits location 0
/// (the hotspot); otherwise one of `cold` cold locations.
fn add_task_strategy(cold: usize) -> impl Strategy<Value = AddTask> {
    (0u32..100, 0usize..cold.max(1), -5i64..6).prop_map(move |(roll, c, delta)| AddTask {
        loc: if roll < 60 { 0 } else { 1 + c },
        delta,
    })
}

/// Allocates `n_locs` locations under distinct classes — distinct shard
/// hints, so shard counts > 1 genuinely spread them — and builds the
/// read-modify-write form of the tasks (real conflicts under write-set
/// detection).
fn build_rmw(tasks: &[AddTask], n_locs: usize) -> (Store, Vec<Task>) {
    let mut store = Store::new();
    let locs: Vec<_> = (0..n_locs)
        .map(|i| store.alloc(format!("cls{i}").as_str(), Value::int(0)))
        .collect();
    let built = tasks
        .iter()
        .map(|&t| {
            let loc = locs[t.loc];
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(loc);
                tx.write(loc, v + t.delta);
            })
        })
        .collect();
    (store, built)
}

fn final_sums(outcome_store: &Store, n_locs: usize) -> Vec<i64> {
    let mut probe = Store::new();
    (0..n_locs)
        .map(|i| {
            let loc = probe.alloc(format!("cls{i}").as_str(), Value::int(0));
            outcome_store
                .value(loc)
                .and_then(Value::as_int)
                .expect("int")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Unordered commutative tasks: every (shard count, detector) pair
    /// commits all tasks to the sequential sums.
    #[test]
    fn every_shard_count_commits_to_the_sequential_sums(
        tasks in proptest::collection::vec(add_task_strategy(3), 1..24),
        threads in 1usize..5,
    ) {
        let n_locs = 4;
        let mut expected = vec![0i64; n_locs];
        for t in &tasks {
            expected[t.loc] += t.delta;
        }
        let detectors: [(&str, Arc<dyn ConflictDetector>); 2] = [
            ("sequence", Arc::new(SequenceDetector::new())),
            ("write-set", Arc::new(WriteSetDetector::new())),
        ];
        for (label, det) in &detectors {
            for shards in SHARD_COUNTS {
                let (store, built) = build_rmw(&tasks, n_locs);
                let outcome = Janus::new(Arc::clone(det))
                    .threads(threads)
                    .shards(shards)
                    .run(store, built);
                prop_assert_eq!(
                    outcome.stats.commits,
                    tasks.len() as u64,
                    "{} @ {} shards: all tasks commit", label, shards
                );
                prop_assert_eq!(
                    &final_sums(&outcome.store, n_locs),
                    &expected,
                    "{} @ {} shards, {} threads", label, shards, threads
                );
            }
        }
    }

    /// Ordered runs equal the sequential execution at every shard count,
    /// even for order-sensitive (non-commuting) bodies.
    #[test]
    fn ordered_runs_match_sequential_at_every_shard_count(
        deltas in proptest::collection::vec(1i64..7, 1..12),
        threads in 1usize..5,
    ) {
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
        for shards in SHARD_COUNTS {
            let outcome = Janus::new(Arc::new(SequenceDetector::new()))
                .threads(threads)
                .shards(shards)
                .ordered(true)
                .run(store.clone(), build(&deltas));
            prop_assert_eq!(outcome.stats.commits, deltas.len() as u64);
            let got = outcome.store.value(x).and_then(Value::as_int).expect("int");
            prop_assert_eq!(got, expected, "{} shards @ {} threads", shards, threads);
        }
    }

    /// Seeded chaos: the same fault seed isolates the same tasks and
    /// reaches the same surviving state at every shard count. Add-only
    /// bodies never genuinely conflict under sequence detection, so
    /// attempt numbers — and with them the seeded plan's decisions — are
    /// shard-count-independent.
    #[test]
    fn chaos_outcomes_are_shard_count_invariant(
        fault_seed in 0u64..64,
        rate_pct in 5u32..35,
    ) {
        silence_injected_panics();
        let run = |shards: usize| {
            let mut store = Store::new();
            let locs: Vec<_> = (0..12)
                .map(|i| store.alloc(format!("cls{i}").as_str(), Value::int(0)))
                .collect();
            let tasks: Vec<Task> = locs
                .iter()
                .map(|&l| Task::new(move |tx: &mut TxView| tx.add(l, 1)))
                .collect();
            Janus::new(Arc::new(SequenceDetector::new()))
                .threads(3)
                .shards(shards)
                .panic_policy(PanicPolicy::Isolate)
                .faults(Arc::new(FaultPlan::seeded(
                    fault_seed,
                    f64::from(rate_pct) / 100.0,
                )))
                .run(store, tasks)
        };
        let baseline = run(SHARD_COUNTS[0]);
        for shards in &SHARD_COUNTS[1..] {
            let outcome = run(*shards);
            prop_assert_eq!(
                &outcome.failed, &baseline.failed,
                "same seed, same isolated tasks @ {} shards", shards
            );
            prop_assert_eq!(outcome.stats.commits, baseline.stats.commits);
            prop_assert_eq!(outcome.stats.tasks_failed, baseline.stats.tasks_failed);
            prop_assert_eq!(
                final_sums(&outcome.store, 12),
                final_sums(&baseline.store, 12),
                "surviving state @ {} shards", shards
            );
        }
    }
}

/// Forced-conflict sites fire on exact (task, attempt) pairs, so the
/// abort count is deterministic: every shard count retries exactly the
/// listed sites and still commits everything.
#[test]
fn forced_conflict_sites_abort_identically_at_every_shard_count() {
    // Subjects are 1-based task ids.
    let sites: Vec<FaultSite> = (1..=5)
        .map(|task| FaultSite {
            kind: FaultKind::ForcedConflict,
            subject: task,
            attempt: 0,
        })
        .collect();
    let forced = sites.len() as u64;
    for shards in SHARD_COUNTS {
        let mut store = Store::new();
        let locs: Vec<_> = (0..10)
            .map(|i| store.alloc(format!("cls{i}").as_str(), Value::int(0)))
            .collect();
        let tasks: Vec<Task> = locs
            .iter()
            .map(|&l| Task::new(move |tx: &mut TxView| tx.add(l, 1)))
            .collect();
        let outcome = Janus::new(Arc::new(SequenceDetector::new()))
            .threads(4)
            .shards(shards)
            .faults(Arc::new(FaultPlan::from_sites(sites.clone())))
            .run(store, tasks);
        assert_eq!(outcome.stats.commits, 10, "{shards} shards");
        assert_eq!(
            outcome.stats.retries, forced,
            "{shards} shards: exactly the forced sites abort"
        );
        assert_eq!(final_sums(&outcome.store, 10), vec![1i64; 10]);
    }
}

/// The shard builder rejects counts outside `1..=SHARD_SPACE`.
#[test]
#[should_panic(expected = "shard count")]
fn shard_count_zero_is_rejected() {
    let _ = Janus::new(Arc::new(SequenceDetector::new())).shards(0);
}

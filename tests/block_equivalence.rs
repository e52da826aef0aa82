//! Block-pipeline equivalence: streaming K batches through the
//! [`janus::block::BlockExecutor`] is observably the same computation as
//! one flat run of their concatenation.
//!
//! * Commutative batches: pipelined `execute_blocks` commits every
//!   transaction exactly once and lands on the sequential sums, across
//!   shard counts × detectors × schedule policies.
//! * Ordered mode: order-sensitive (non-commuting) bodies split across
//!   batches reproduce the flat sequential execution bit for bit — the
//!   session's one ordered turn makes commit order follow submission
//!   order, within a batch and across batches.

use std::sync::Arc;

use janus::block::{BlockExecutor, BlockStatus, PipelineMode};
use janus::core::{Janus, Store, Task, TxView};
use janus::detect::{ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::relational::Value;
use janus::sched::{Fifo, SchedulePolicy};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 2] = [1, 8];

/// One add-only transaction: bump location `loc` by `delta`.
#[derive(Debug, Clone, Copy)]
struct AddTask {
    loc: usize,
    delta: i64,
}

/// Skewed generator: ~60% of tasks hit location 0 (the hotspot), so
/// consecutive batches genuinely overlap in footprint and, pipelined,
/// their commits to it interleave.
fn add_task_strategy(cold: usize) -> impl Strategy<Value = AddTask> {
    (0u32..100, 0usize..cold.max(1), -5i64..6).prop_map(move |(roll, c, delta)| AddTask {
        loc: if roll < 60 { 0 } else { 1 + c },
        delta,
    })
}

/// A stream of 1..=4 batches with 1..=6 transactions each.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<AddTask>>> {
    proptest::collection::vec(proptest::collection::vec(add_task_strategy(3), 1..7), 1..5)
}

fn alloc_locs(store: &mut Store, n: usize) -> Vec<janus::log::LocId> {
    (0..n)
        .map(|i| store.alloc(format!("cls{i}").as_str(), Value::int(0)))
        .collect()
}

/// Read-modify-write form: real conflicts under write-set detection.
fn build_rmw(tasks: &[AddTask], locs: &[janus::log::LocId]) -> Vec<Task> {
    tasks
        .iter()
        .map(|&t| {
            let loc = locs[t.loc];
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(loc);
                tx.write(loc, v + t.delta);
            })
        })
        .collect()
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

fn schedules() -> Vec<(&'static str, Arc<dyn SchedulePolicy>)> {
    vec![("fifo", Arc::new(Fifo))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipelined `execute_blocks` over K batches equals one flat
    /// sequential run of the concatenation: same sums, every
    /// transaction committed exactly once — for every combination of
    /// shard count, detector and schedule policy.
    #[test]
    fn pipelined_blocks_equal_the_flat_sequential_run(
        batches in batches_strategy(),
        threads in 1usize..4,
    ) {
        let n_locs = 4;
        let total: usize = batches.iter().map(Vec::len).sum();
        let mut expected = vec![0i64; n_locs];
        for t in batches.iter().flatten() {
            expected[t.loc] += t.delta;
        }
        let detectors: [(&str, Arc<dyn ConflictDetector>); 2] = [
            ("sequence", Arc::new(SequenceDetector::new())),
            ("write-set", Arc::new(WriteSetDetector::new())),
        ];
        for (det_label, det) in &detectors {
            for (sched_label, sched) in schedules() {
                for shards in SHARD_COUNTS {
                    let mut store = Store::new();
                    let locs = alloc_locs(&mut store, n_locs);
                    let janus = Janus::new(Arc::clone(det))
                        .threads(threads)
                        .shards(shards)
                        .schedule(Arc::clone(&sched));
                    let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
                    let blocks: Vec<Vec<Task>> = batches
                        .iter()
                        .map(|b| build_rmw(b, &locs))
                        .collect();
                    let outcomes = exec.execute_blocks(blocks);
                    let ctx = format!(
                        "{det_label}/{sched_label} @ {shards} shards, {threads} threads"
                    );
                    prop_assert_eq!(outcomes.len(), batches.len(), "{}", &ctx);
                    prop_assert!(
                        outcomes.iter().all(|o| o.status == BlockStatus::Committed),
                        "{}: every block commits", &ctx
                    );
                    let committed: u64 = outcomes.iter().map(|o| o.commits()).sum();
                    prop_assert_eq!(
                        committed, total as u64,
                        "{}: each transaction commits exactly once", &ctx
                    );
                    let (final_store, _, tail) = exec.finish();
                    prop_assert!(tail.is_empty());
                    prop_assert_eq!(
                        &final_sums(&final_store, n_locs),
                        &expected,
                        "{}", &ctx
                    );
                }
            }
        }
    }

    /// Ordered mode preserves cross-batch order exactly: splitting an
    /// order-sensitive chain (`x = x*3 + d`) into batches at arbitrary
    /// points changes nothing — the pipelined stream still equals the
    /// flat sequential execution.
    #[test]
    fn ordered_mode_preserves_cross_batch_order_exactly(
        deltas in proptest::collection::vec(1i64..7, 1..12),
        cut_roll in 0usize..1000,
        threads in 1usize..4,
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

        // Deterministic arbitrary split of the chain into 1..=3 batches.
        let cut1 = cut_roll % (deltas.len() + 1);
        let cut2 = (cut_roll / 31) % (deltas.len() + 1);
        let (lo, hi) = (cut1.min(cut2), cut1.max(cut2));
        let batches = [&deltas[..lo], &deltas[lo..hi], &deltas[hi..]];

        for shards in SHARD_COUNTS {
            let janus = Janus::new(Arc::new(SequenceDetector::new()))
                .threads(threads)
                .shards(shards)
                .ordered(true);
            let mut exec = BlockExecutor::new(janus, store.clone(), PipelineMode::Pipelined);
            let outcomes = exec.execute_blocks(
                batches
                    .iter()
                    .filter(|b| !b.is_empty())
                    .map(|b| build(b))
                    .collect(),
            );
            let committed: u64 = outcomes.iter().map(|o| o.commits()).sum();
            prop_assert_eq!(committed, deltas.len() as u64);
            let (final_store, _, _) = exec.finish();
            let got = final_store.value(x).and_then(Value::as_int).expect("int");
            prop_assert_eq!(
                got, expected,
                "ordered @ {} shards, {} threads, cuts ({}, {})",
                shards, threads, lo, hi
            );
        }
    }
}

/// Turn waits span blocks: an ordered pipelined stream over one hot
/// location makes block N+1's workers park on the session's turn while
/// block N is still draining, and the chain must still reproduce the
/// flat sequential result with almost as many workers as tasks per
/// block.
#[test]
fn turn_parked_ordered_blocks_match_sequential() {
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
    let deltas: Vec<i64> = (1..=18).collect();
    let (seq_store, _) = Janus::run_sequential(store.clone(), &build(&deltas));
    let expected = seq_store.value(x).and_then(Value::as_int).expect("int");
    let batches: Vec<&[i64]> = deltas.chunks(6).collect();
    // 4 workers over 6-task blocks: each worker takes 1-2 tasks of a
    // block and parks on the ordered turn before each commit, and the
    // successor block's workers park on the same turn until block N's
    // last commit.
    let janus = Janus::new(Arc::new(WriteSetDetector::new()))
        .threads(4)
        .ordered(true)
        .schedule(Arc::new(Fifo));
    let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
    let outcomes = exec.execute_blocks(batches.iter().map(|b| build(b)).collect());
    assert!(outcomes.iter().all(|o| o.status == BlockStatus::Committed));
    let committed: u64 = outcomes.iter().map(|o| o.commits()).sum();
    assert_eq!(committed, deltas.len() as u64);
    let (final_store, _, _) = exec.finish();
    assert_eq!(final_store.value(x).and_then(Value::as_int), Some(expected));
}

/// Disjoint-footprint batches in flight together: a successor block's
/// commits may land while its predecessor still runs, and every
/// location ends with exactly its own block's add, once.
#[test]
fn overlapping_disjoint_blocks_each_commit_their_adds_once() {
    let mut store = Store::new();
    let locs = alloc_locs(&mut store, 8);
    let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(2);
    let mut exec = BlockExecutor::new(janus, store, PipelineMode::Pipelined);
    let blocks: Vec<Vec<Task>> = locs
        .chunks(2)
        .map(|pair| {
            pair.iter()
                .map(|&l| {
                    Task::new(move |tx: &mut TxView| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        tx.add(l, 1);
                    })
                })
                .collect()
        })
        .collect();
    let outcomes = exec.execute_blocks(blocks);
    assert!(outcomes.iter().all(|o| o.status == BlockStatus::Committed));
    let (final_store, _, _) = exec.finish();
    assert_eq!(final_sums(&final_store, 8), vec![1i64; 8]);
}

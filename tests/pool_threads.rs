//! Thread counts of the process-wide worker pool.
//!
//! The pool never shrinks and is shared by everything in the process,
//! so its counts are only exact in a binary of their own. Everything
//! lives in one `#[test]`, in an order where each phase can only grow
//! the pool to the size the phase predicts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use janus::block::{BlockExecutor, BlockStatus, PipelineMode};
use janus::core::{pool_threads, Janus, Store, Task, TxView};
use janus::detect::SequenceDetector;
use janus::log::LocId;
use janus::relational::Value;

fn janus(threads: usize) -> Janus {
    Janus::new(Arc::new(SequenceDetector::new())).threads(threads)
}

fn adds(locs: &[LocId]) -> Vec<Task> {
    locs.iter()
        .map(|&loc| Task::new(move |tx: &mut TxView| tx.add(loc, 1)))
        .collect()
}

/// One add per location, each waiting on `barrier` in its first attempt.
fn meeting(locs: &[LocId], barrier: &Arc<Barrier>) -> Vec<Task> {
    locs.iter()
        .map(|&loc| {
            let (barrier, met) = (Arc::clone(barrier), AtomicBool::new(false));
            Task::new(move |tx: &mut TxView| {
                if !met.swap(true, Ordering::Relaxed) {
                    barrier.wait();
                }
                tx.add(loc, 1);
            })
        })
        .collect()
}

#[test]
fn pool_size_is_the_peak_number_of_jobs_in_flight() {
    let mut store = Store::new();
    let locs: Vec<LocId> = (0..4)
        .map(|i| store.alloc(format!("acct{i}").as_str(), Value::int(0)))
        .collect();

    // `Janus::run` at two threads: worker 0 on the caller, worker 1 on
    // one pool thread, reused by every run.
    for _ in 0..100 {
        let outcome = janus(2).run(store.clone(), adds(&locs));
        assert_eq!(outcome.stats.commits, 4);
    }
    assert_eq!(pool_threads(), 1, "100 runs at threads(2)");

    // A pipelined stream at two threads: two blocks in flight, each on
    // its conduct thread (worker 0) plus one more. Warm up by making
    // both blocks' workers meet, which needs all four at once.
    let mut exec = BlockExecutor::new(janus(2), store.clone(), PipelineMode::Pipelined);
    let barrier = Arc::new(Barrier::new(4));
    exec.submit(meeting(&locs[..2], &barrier));
    exec.submit(meeting(&locs[2..], &barrier));
    exec.drain();
    assert_eq!(pool_threads(), 4, "warm-up");
    for _ in 0..1000 {
        let retired = exec.submit(adds(&locs[..2])).retired;
        assert!(retired.iter().all(|o| o.status == BlockStatus::Committed));
    }
    exec.drain();
    assert_eq!(pool_threads(), 4, "1000 pipelined blocks at threads(2)");
    let (final_store, _, _) = exec.finish();
    assert_eq!(final_store.value(locs[0]), Some(&Value::int(1001)));

    // Every drained block has released the session before `finish`.
    let mut exec = BlockExecutor::new(janus(2), store, PipelineMode::Pipelined);
    for _ in 0..200 {
        exec.submit(adds(&locs));
        exec.drain();
    }
    let (final_store, _, _) = exec.finish();
    assert_eq!(final_store.value(locs[3]), Some(&Value::int(200)));
    assert_eq!(pool_threads(), 4);
}

//! Online training via memoization (§5.3 of the paper): skip the offline
//! phase entirely and let the first production run train the cache.
//!
//! The first conflict query of each shape pays for a precise sequence
//! check; the learned abstract pair then answers every later query of
//! that shape at cache speed. Useful when no representative training
//! inputs exist.
//!
//! Run with: `cargo run --release --example online_learning`

use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::CachedSequenceDetector;
use janus::relational::Value;
use janus::train::OnlineLearningCache;

fn main() {
    let mut store = Store::new();
    let work = store.alloc("work", Value::int(0));
    let total = store.alloc("total", Value::int(0));

    // Identity + reduction, as in Figure 1 — but with no training phase.
    // A barrier makes the first wave of transactions genuinely overlap
    // even on a single-core host, so conflict queries (and learning)
    // demonstrably happen.
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let tasks: Vec<Task> = (1..=40i64)
        .map(|w| {
            let barrier = Arc::clone(&barrier);
            Task::new(move |tx: &mut TxView| {
                if w <= 4 {
                    barrier.wait();
                }
                tx.add(work, w);
                janus::workloads::local_work(30_000);
                tx.add(total, w); // reduction
                tx.add(work, -w); // identity restored
            })
        })
        .collect();

    let detector = Arc::new(CachedSequenceDetector::new(OnlineLearningCache::new(true)));
    let outcome = Janus::new(detector.clone()).threads(4).run(store, tasks);

    let (unique_hits, unique_misses) = detector.oracle().unique_counts();
    println!(
        "{} commits, {} retries; cache learned {} entries online \
         ({unique_misses} learning misses, {unique_hits} unique hits)",
        outcome.stats.commits,
        outcome.stats.retries,
        detector.oracle().len(),
    );
    println!(
        "final work = {}  total = {}",
        outcome
            .store
            .value(work)
            .and_then(Value::as_int)
            .expect("int"),
        outcome
            .store
            .value(total)
            .and_then(Value::as_int)
            .expect("int"),
    );
    // Concurrent misses on one shape memoize it once: every entry is
    // owed to a distinct learning miss.
    assert!(detector.oracle().len() as u64 <= unique_misses);
    assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
    assert_eq!(
        outcome.store.value(total),
        Some(&Value::int((1..=40).sum()))
    );
}

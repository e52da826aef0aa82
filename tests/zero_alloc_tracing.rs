//! Allocation guarantees of the observability layer.
//!
//! Instrumentation must be free when disabled and cheap when enabled:
//! the untraced runtime performs *zero* recorder allocations (the
//! disabled path is a single `Option` branch), and the enabled record
//! path allocates nothing per event — the ring is a bounded buffer, the
//! class id is a shared `Arc<str>`, and once the ring has reached
//! capacity even the amortized `Vec` growth is gone.
//!
//! Everything lives in one `#[test]` so concurrent tests in this binary
//! cannot pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::SequenceDetector;
use janus::log::{ClassId, LocId};
use janus::obs::{CheckReason, EventKind, Recorder, Verdict};
use janus::relational::Value;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Identity-pattern tasks: conflict-free under sequence detection, so a
/// single-threaded run is deterministic.
fn identity_tasks(work: LocId, n: usize) -> Vec<Task> {
    (1..=n as i64)
        .map(|w| {
            Task::new(move |tx: &mut TxView| {
                tx.add(work, w);
                tx.add(work, -w);
            })
        })
        .collect()
}

fn run_tasks(n: usize, recorder: Option<&Arc<Recorder>>) -> u64 {
    let mut store = Store::new();
    let work = store.alloc("work", Value::int(0));
    let tasks = identity_tasks(work, n);
    let mut janus = Janus::new(Arc::new(SequenceDetector::new())).threads(1);
    if let Some(rec) = recorder {
        janus = janus.recorder(Arc::clone(rec));
    }
    let before = allocs();
    let outcome = janus.run(store, tasks);
    let after = allocs();
    assert_eq!(outcome.stats.commits, n as u64);
    after - before
}

#[test]
fn tracing_allocation_budget() {
    const TASKS: usize = 400;

    // --- Enabled hot path: zero allocations per event at capacity. ---
    let class = ClassId::new("x");
    let rec = Recorder::with_capacity(256);
    let handle = rec.register("w0");
    for task in 0..256 {
        handle.record(EventKind::Begin { task });
    }
    let before = allocs();
    for i in 0..10_000u64 {
        handle.set_clock(i);
        handle.record(EventKind::PerCellCheck {
            loc: LocId(i),
            class: class.clone(),
            verdict: Verdict::Pass,
            reason: CheckReason::Commute,
            ops_scanned: 2,
        });
    }
    let hot_path = allocs() - before;
    assert_eq!(
        hot_path, 0,
        "recording at capacity must not allocate (got {hot_path} allocations / 10000 events)"
    );

    // --- Pre-capacity path: amortized Vec growth, not per-event. ---
    let rec = Recorder::with_capacity(1 << 16);
    let handle = rec.register("w0");
    let before = allocs();
    for task in 0..4096 {
        handle.record(EventKind::Begin { task });
    }
    let growth = allocs() - before;
    assert!(
        growth <= 16,
        "filling the ring must allocate O(log n) times, got {growth} for 4096 events"
    );
    drop(handle);

    // --- Disabled path: no recorder cost at all. ---
    // Warm up lazy state (thread-local hashers, runtime one-offs), then
    // check an untraced run's allocation count is stable and a traced run
    // of the same workload adds only a bounded constant (registration,
    // ring growth, teardown) — nothing proportional to its event count.
    run_tasks(TASKS, None);
    let untraced_a = run_tasks(TASKS, None);
    let untraced_b = run_tasks(TASKS, None);
    let untraced = untraced_a.max(untraced_b);
    let jitter = untraced_a.abs_diff(untraced_b);
    assert!(
        jitter <= 32,
        "untraced runs must have stable allocation counts (got {untraced_a} vs {untraced_b})"
    );

    let rec = Recorder::new();
    let traced = run_tasks(TASKS, Some(&rec));
    let trace = rec.finish();
    assert!(
        trace.len() >= 2 * TASKS,
        "expected at least begin+commit per task, got {} events",
        trace.len()
    );
    // Bound is ~an eighth of the event count: a per-event allocation
    // would blow it by an order of magnitude, OS jitter will not.
    let overhead = traced.saturating_sub(untraced);
    assert!(
        overhead < 128,
        "tracing overhead must be a bounded constant, not per-event: \
         {overhead} extra allocations for {} events (untraced {untraced}, traced {traced})",
        trace.len()
    );
}

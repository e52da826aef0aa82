//! Allocation guarantees of the frozen commutativity cache.
//!
//! Production conflict queries against a [`janus::train::FrozenCache`]
//! must be free of per-query heap traffic: the abstraction buffers are
//! inline, the compact NFA simulates in `u128` registers, the bucket
//! lookup borrows the caller's `ClassId`, and the statistics are atomic
//! counters plus a CAS-claimed signature table — no `Mutex`, no
//! `BTreeMap` insert, no `Vec` per query.
//!
//! Everything lives in one `#[test]` so concurrent tests in this binary
//! cannot pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use janus::detect::{Relaxation, SequenceOracle};
use janus::log::{CellKey, ClassId, LocId, Op, OpKind, ScalarOp};
use janus::relational::Value;
use janus::train::{
    AbstractOp, CellShape, CommutativityCache, Condition, Element, FrozenCache, Pattern, INLINE_OPS,
};

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

/// Balanced add/subtract operations on one location of class `work`.
fn mk_ops(n: usize) -> Vec<Op> {
    let mut v = Value::int(0);
    (0..n)
        .map(|i| {
            let delta = if i % 2 == 0 { 1 } else { -1 };
            Op::execute(
                LocId(0),
                ClassId::new("work"),
                OpKind::Scalar(ScalarOp::Add(delta)),
                &mut v,
            )
            .0
        })
        .collect()
}

fn add_pattern() -> Pattern {
    Pattern(vec![Element::Plus(vec![
        Element::Atom(AbstractOp::Add),
        Element::Atom(AbstractOp::Add),
    ])])
}

fn trained() -> FrozenCache {
    let mut cache = CommutativityCache::new(true);
    cache.insert(
        ClassId::new("work"),
        CellShape::Whole,
        add_pattern(),
        add_pattern(),
        Condition::CommutesAlways,
    );
    cache.freeze()
}

#[test]
fn frozen_cache_query_allocation_budget() {
    const QUERIES: u64 = 10_000;

    let frozen = trained();
    let ops = mk_ops(8);
    assert!(ops.len() <= INLINE_OPS);
    let txn: Vec<&Op> = ops.iter().collect();
    let work = ClassId::new("work");
    let unknown = ClassId::new("unknown");

    // Warm up lazy one-offs (thread-locals, the first stats slots).
    for _ in 0..16 {
        frozen.query(
            &work,
            None,
            &CellKey::Whole,
            &txn,
            &txn,
            Relaxation::strict(),
        );
        frozen.query(
            &unknown,
            None,
            &CellKey::Whole,
            &txn,
            &txn,
            Relaxation::strict(),
        );
    }

    // --- Hit path: zero allocations per query. ---
    let before = allocs();
    for _ in 0..QUERIES {
        let ans = frozen.query(
            &work,
            None,
            &CellKey::Whole,
            &txn,
            &txn,
            Relaxation::strict(),
        );
        assert_eq!(ans, Some(false));
    }
    let hit_path = allocs() - before;
    assert_eq!(
        hit_path, 0,
        "frozen hit path must not allocate (got {hit_path} allocations / {QUERIES} queries)"
    );

    // --- Miss path (unknown class): equally free. ---
    let before = allocs();
    for _ in 0..QUERIES {
        let ans = frozen.query(
            &unknown,
            None,
            &CellKey::Whole,
            &txn,
            &txn,
            Relaxation::strict(),
        );
        assert_eq!(ans, None);
    }
    let miss_path = allocs() - before;
    assert_eq!(
        miss_path, 0,
        "frozen miss path must not allocate (got {miss_path} allocations / {QUERIES} queries)"
    );

    // Totals survived the hot loops (the lock-free stats recorded every
    // query; unique signatures were claimed exactly once each).
    assert_eq!(frozen.stats().hits.load(Ordering::Relaxed), QUERIES + 16);
    assert_eq!(frozen.stats().misses.load(Ordering::Relaxed), QUERIES + 16);
    assert_eq!(frozen.stats().unique_counts(), (1, 1));

    // --- Spill path: transactions beyond INLINE_OPS may allocate their
    // abstraction buffers, but must still answer identically. ---
    let big_ops = mk_ops(INLINE_OPS + 6);
    let big: Vec<&Op> = big_ops.iter().collect();
    let ans = frozen.query(
        &work,
        None,
        &CellKey::Whole,
        &big,
        &big,
        Relaxation::strict(),
    );
    assert_eq!(ans, Some(false), "spill path must reach the same entries");
}

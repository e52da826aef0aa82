//! Ops probe: what one relational operation costs on this machine.
//!
//! Prints one JSON object with the median per-op cost of `Op::execute` of
//! a pixel insert into a 64k-tuple `(x, y) → color` relation, the way a
//! transaction runs it: a task privatizes the shared relation (an O(1)
//! clone) and then paints 600 pixels that are already set —
//! `insert_ns` as 30 horizontal 20-pixel lines, `insert_random_ns` as
//! 600 random pixels. Two commit-path rows follow, in ns per call:
//! `validate_ns` validates one 600-insert transaction against one
//! committed 600-insert segment that shares 16 of its pixels (the
//! detection engine alone: every cell passes), and `commit_plan_ns`
//! builds what a commit publishes for a 602-op log spanning two shards
//! (decompose once, one entry per shard). The loops' sequential and
//! 2-thread walls are the benchmark's `loops.<name>.{seq,par}_wall_s`
//! counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ops_probe            # 50 tasks per row
//! cargo run --release --example ops_probe -- --quick # smoke: 5 tasks
//! ```

use std::sync::Arc;
use std::time::Instant;

use janus::detect::{
    CachedSequenceDetector, ConflictDetector, MapState, Relaxation, SequenceOracle,
};
use janus::log::{CellKey, ClassId, CommittedLog, HistoryWindow, LocId, Op, OpKind, ScalarOp};
use janus::relational::{Fd, RelOp, Relation, Scalar, Schema, Tuple, Value};

/// Side of the square pixel relation (64k tuples).
const SIDE: i64 = 256;
/// Inserts per privatized copy (about one weka task's worth).
const OPS_PER_TASK: usize = 600;
/// Pixels per painted line.
const LINE: usize = 20;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn pixel(x: i64, y: i64, color: i64) -> Tuple {
    Tuple::new(vec![Scalar::Int(x), Scalar::Int(y), Scalar::Int(color)])
}

/// The full 64k-pixel canvas, every pixel set to color 0.
fn canvas() -> Value {
    let schema = Schema::with_fd(&["x", "y", "color"], Fd::new(&[0, 1], &[2]));
    Value::Rel(Relation::from_tuples(
        schema,
        (0..SIDE).flat_map(|x| (0..SIDE).map(move |y| pixel(x, y, 0))),
    ))
}

/// Logs the insert of every pixel in `pixels` (color 1) at location 0,
/// through a privatized copy of `shared`.
fn paint(shared: &Value, pixels: impl Iterator<Item = (i64, i64)>) -> Vec<Op> {
    let class = ClassId::new("probe.pixels");
    let mut private = shared.clone();
    pixels
        .map(|(x, y)| {
            let kind = OpKind::Rel(RelOp::insert(pixel(x, y, 1)));
            Op::execute(LocId(0), class.clone(), kind, &mut private).0
        })
        .collect()
}

/// Median ns per `Op::execute` of an insert over `tasks` privatized
/// copies of a full 64k-pixel relation.
fn insert_ns(tasks: usize, lines: bool) -> f64 {
    let shared = canvas();
    let class = ClassId::new("probe.pixels");
    // A fixed pseudo-random walk over the canvas (64-bit LCG).
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as i64
    };
    let mut per_op = Vec::with_capacity(tasks);
    for _ in 0..tasks {
        let ops: Vec<OpKind> = if lines {
            (0..OPS_PER_TASK / LINE)
                .flat_map(|_| {
                    let (x, y) = (next() % (SIDE - LINE as i64), next() % SIDE);
                    (0..LINE as i64).map(move |dx| OpKind::Rel(RelOp::insert(pixel(x + dx, y, 1))))
                })
                .collect()
        } else {
            (0..OPS_PER_TASK)
                .map(|_| {
                    let (x, y) = (next() % SIDE, next() % SIDE);
                    OpKind::Rel(RelOp::insert(pixel(x, y, 1)))
                })
                .collect()
        };
        let mut private = shared.clone();
        let mut log = Vec::with_capacity(OPS_PER_TASK);
        let t0 = Instant::now();
        for kind in ops {
            let (op, _) = Op::execute(LocId(0), class.clone(), kind, &mut private);
            log.push(op);
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / OPS_PER_TASK as f64);
        drop((private, log));
    }
    median(&mut per_op)
}

/// A commutativity cache that proves every cell commutes, so a
/// validation judges every shared cell and costs only the engine.
struct PassOracle;

impl SequenceOracle for PassOracle {
    fn query(
        &self,
        _class: &ClassId,
        _entry: Option<&Value>,
        _cell: &CellKey,
        _txn: &[&Op],
        _committed: &[&Op],
        _relax: Relaxation,
    ) -> Option<bool> {
        Some(false)
    }
}

/// Median ns of one validation of a 600-insert transaction (rows 0..6,
/// x in 0..100) against one committed 600-insert segment that shares
/// exactly 16 of its pixels, over `reps` validations.
fn validate_ns(reps: usize) -> f64 {
    let shared = canvas();
    let txn = CommittedLog::new(paint(&shared, (0..600).map(|i| (i % 100, i / 100))));
    let segment = [Arc::new(CommittedLog::new(paint(
        &shared,
        (0..584)
            .map(|i| (i % 100, 6 + i / 100))
            .chain((0..16).map(|x| (x, 0))),
    )))];
    let entry = MapState([(LocId(0), shared)].into_iter().collect());
    let det = CachedSequenceDetector::new(PassOracle);
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let conflict = det.detect(&entry, &txn, HistoryWindow::new(&segment));
            let elapsed = t0.elapsed().as_nanos() as f64;
            assert!(!conflict);
            elapsed
        })
        .collect();
    assert_eq!(det.stats().cells_checked(), 16 * reps as u64);
    median(&mut ns)
}

/// What a commit publishes for `log` in a store of `shards` shards: one
/// entry per touched shard, each a view of the once-decomposed log.
fn publish_entries(log: &CommittedLog, shards: usize) -> Vec<CommittedLog> {
    let mut touched: Vec<usize> = log.index().locs.keys().map(|l| l.shard(shards)).collect();
    touched.sort_unstable();
    touched.dedup();
    touched
        .into_iter()
        .map(|s| log.restrict(|loc| loc.shard(shards) == s))
        .collect()
}

/// Median ns of building a commit's publish plan — decompose the log,
/// then one entry per shard — for 600 pixel inserts at location 0 plus
/// two counter updates at location 1, in an 8-shard store, over `reps`
/// builds.
fn commit_plan_ns(reps: usize) -> f64 {
    let mut ops = paint(&canvas(), (0..600).map(|i| (i % 100, i / 100)));
    let mut counter = Value::int(0);
    for d in [1, -1] {
        let kind = OpKind::Scalar(ScalarOp::Add(d));
        ops.push(Op::execute(LocId(1), ClassId::new("probe.count"), kind, &mut counter).0);
    }
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let ops = ops.clone();
            let t0 = Instant::now();
            let log = CommittedLog::new(ops);
            let entries = publish_entries(&log, 8);
            let elapsed = t0.elapsed().as_nanos() as f64;
            assert_eq!(entries.len(), 2, "the log spans two shards");
            elapsed
        })
        .collect();
    median(&mut ns)
}

fn main() {
    let tasks = if std::env::args().any(|a| a == "--quick") {
        5
    } else {
        50
    };
    println!(
        "{{\n  \"insert_ns\": {:.0},\n  \"insert_random_ns\": {:.0},\n  \"validate_ns\": {:.0},\n  \"commit_plan_ns\": {:.0}\n}}",
        insert_ns(tasks, true),
        insert_ns(tasks, false),
        validate_ns(tasks * 4),
        commit_plan_ns(tasks * 4),
    );
}

//! Ops probe: what one relational operation costs on this machine.
//!
//! Prints one JSON object with the median per-op cost of `Op::execute` of
//! a pixel insert into a 64k-tuple `(x, y) → color` relation, the way a
//! transaction runs it: a task privatizes the shared relation (an O(1)
//! clone) and then paints 600 pixels that are already set —
//! `insert_ns` as 30 horizontal 20-pixel lines, `insert_random_ns` as
//! 600 random pixels. The loops' sequential and 2-thread walls are the
//! benchmark's `loops.<name>.{seq,par}_wall_s` counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ops_probe            # 50 tasks per row
//! cargo run --release --example ops_probe -- --quick # smoke: 5 tasks
//! ```

use std::time::Instant;

use janus::log::{ClassId, LocId, Op, OpKind};
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

/// Median ns per `Op::execute` of an insert over `tasks` privatized
/// copies of a full 64k-pixel relation.
fn insert_ns(tasks: usize, lines: bool) -> f64 {
    let schema = Schema::with_fd(&["x", "y", "color"], Fd::new(&[0, 1], &[2]));
    let shared = Value::Rel(Relation::from_tuples(
        schema,
        (0..SIDE).flat_map(|x| (0..SIDE).map(move |y| pixel(x, y, 0))),
    ));
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

fn main() {
    let tasks = if std::env::args().any(|a| a == "--quick") {
        5
    } else {
        50
    };
    println!(
        "{{\n  \"insert_ns\": {:.0},\n  \"insert_random_ns\": {:.0}\n}}",
        insert_ns(tasks, true),
        insert_ns(tasks, false)
    );
}

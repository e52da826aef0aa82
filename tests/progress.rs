//! Progress without a retry budget.
//!
//! An attempt aborts on a conflict only with a commit made after it
//! began: its window holds exactly the commits since its begin, and the
//! next attempt begins after that commit drew its ticket. So the
//! windows of one task's aborted attempts are disjoint, each holds at
//! least one ticket, and a task can abort no more often than other
//! tasks commit while it runs. These tests check that bound, per task,
//! on recorded lifecycle traces of a hot read-modify-write loop.

use std::collections::HashMap;
use std::sync::Arc;

use janus::core::{Janus, Store, Task, TxView};
use janus::detect::{ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::obs::{AbortReason, EventKind, Recorder, Trace};
use janus::relational::Value;
use janus::workloads::local_work;

const TASKS: i64 = 64;
const RUNS: usize = 20;

/// Per task: its first `Begin` clock, its conflict aborts and its
/// `Commit` clock (the drawn ticket plus one).
#[derive(Default)]
struct Life {
    first_begin: Option<u64>,
    conflicts: u64,
    commit: Option<u64>,
}

fn lives(trace: &Trace) -> HashMap<u64, Life> {
    let mut out: HashMap<u64, Life> = HashMap::new();
    for e in trace.events() {
        match e.kind {
            EventKind::Begin { task } => {
                out.entry(task)
                    .or_default()
                    .first_begin
                    .get_or_insert(e.clock);
            }
            EventKind::Abort {
                task,
                reason: AbortReason::Conflict,
            } => out.entry(task).or_default().conflicts += 1,
            EventKind::Commit { task } => out.entry(task).or_default().commit = Some(e.clock),
            _ => {}
        }
    }
    out
}

/// One traced run of the hot loop: every task reads the counter, does a
/// little local work and writes it back incremented, so concurrent
/// attempts conflict under every detector. Returns the conflict aborts.
fn hot_loop(detector: Arc<dyn ConflictDetector>, ordered: bool) -> u64 {
    let mut store = Store::new();
    let hot = store.alloc("hot", Value::int(0));
    let tasks: Vec<Task> = (0..TASKS)
        .map(|_| {
            Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(hot);
                local_work(2_000);
                tx.write(hot, v + 1);
            })
        })
        .collect();
    let recorder = Recorder::with_capacity(1 << 14);
    let outcome = Janus::new(detector)
        .threads(4)
        .ordered(ordered)
        .recorder(Arc::clone(&recorder))
        .run(store, tasks);
    assert_eq!(outcome.store.value(hot), Some(&Value::int(TASKS)));
    let trace = recorder.finish();
    trace.check_well_formed().expect("a whole trace");
    let lives = lives(&trace);
    assert_eq!(lives.len() as i64, TASKS);
    let mut aborts = 0;
    for (task, life) in &lives {
        let begin = life.first_begin.expect("every task begins");
        let ticket = life.commit.expect("every task commits") - 1;
        // Tickets `begin..ticket` were drawn by other tasks' commits
        // while this task ran.
        assert!(
            life.conflicts <= ticket - begin,
            "task {task} (ordered={ordered}): {} conflict aborts, but only {} commits \
             since its first begin at clock {begin}",
            life.conflicts,
            ticket - begin
        );
        aborts += life.conflicts;
    }
    assert_eq!(aborts, outcome.stats.retries);
    aborts
}

#[test]
fn every_conflict_abort_is_paid_for_by_a_commit() {
    let mut aborts = 0;
    for ordered in [false, true] {
        for _ in 0..RUNS {
            aborts += hot_loop(Arc::new(WriteSetDetector::new()), ordered);
            aborts += hot_loop(Arc::new(SequenceDetector::new()), ordered);
        }
    }
    assert!(
        aborts > 0,
        "the hot loop must conflict for the bound to mean anything"
    );
}

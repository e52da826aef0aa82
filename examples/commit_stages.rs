//! Commit stages: where each paper loop's 2-thread commit time goes.
//!
//! Runs the five loops the way the benchmark's `paper-loops` workload
//! does — Table 6 sizes, two threads, the workload's frozen trained
//! cache — and prints one JSON object per loop with, per commit:
//!
//! * `execute_us`: task bodies, every attempt counted;
//! * `validate_us`: the detector's `begin_validation` plus every
//!   `extend` of every attempt;
//! * `plan_us`: decomposing the log and building one publish entry per
//!   touched shard, re-timed on the loop's sequential logs;
//! * `replay_us`: replaying the logs onto the store, re-timed the same
//!   way (the runtime replays each commit under its shard locks);
//! * `extra_passes`: validation passes beyond an attempt's first (a
//!   session's later `extend` calls), in total and at most in one
//!   attempt, with `retries` and the parallel `wall_ms`.
//!
//! Every figure except `wall_ms` (the median) is summed over `--reps`
//! parallel runs (default 3) and divided by their commits.
//!
//! ```text
//! cargo run --release --example commit_stages             # ~15 s
//! cargo run --release --example commit_stages -- --reps 1
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use janus::core::{Janus, Store, Task};
use janus::detect::{
    CachedSequenceDetector, ConflictDetector, DetectorStats, EntryState, ValidationSession,
};
use janus::log::{CommittedLog, HistoryWindow, Op};
use janus::obs::RingHandle;
use janus::train::{train, TrainConfig};
use janus::workloads::{all_workloads, training_runs, InputSpec};

/// Threads of every parallel run, as in `paper-loops`.
const THREADS: usize = 2;
/// The runtime's default shard count.
const SHARDS: usize = 8;

/// Nanosecond and count accumulators shared by the wrappers.
#[derive(Default)]
struct Clocks {
    execute_ns: AtomicU64,
    validate_ns: AtomicU64,
    extra_passes: AtomicU64,
    max_passes: AtomicU64,
}

fn add_since(counter: &AtomicU64, t0: Instant) {
    counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Forwards to the real detector, timing every session call.
struct TimedDetector {
    inner: Arc<dyn ConflictDetector>,
    clocks: Arc<Clocks>,
}

struct TimedSession<'a> {
    inner: Box<dyn ValidationSession + 'a>,
    clocks: &'a Clocks,
    passes: u64,
}

impl ValidationSession for TimedSession<'_> {
    fn extend(&mut self, delta: &HistoryWindow<'_>) -> bool {
        let t0 = Instant::now();
        let conflict = self.inner.extend(delta);
        add_since(&self.clocks.validate_ns, t0);
        self.passes += 1;
        conflict
    }

    fn conflicted(&self) -> bool {
        self.inner.conflicted()
    }
}

impl Drop for TimedSession<'_> {
    fn drop(&mut self) {
        let extra = self.passes.saturating_sub(1);
        self.clocks.extra_passes.fetch_add(extra, Ordering::Relaxed);
        self.clocks.max_passes.fetch_max(extra, Ordering::Relaxed);
    }
}

impl ConflictDetector for TimedDetector {
    fn begin_validation_traced<'a>(
        &'a self,
        entry: &'a dyn EntryState,
        txn: &'a CommittedLog,
        obs: Option<&'a RingHandle>,
    ) -> Box<dyn ValidationSession + 'a> {
        let t0 = Instant::now();
        let inner = self.inner.begin_validation_traced(entry, txn, obs);
        add_since(&self.clocks.validate_ns, t0);
        Box::new(TimedSession {
            inner,
            clocks: &self.clocks,
            passes: 0,
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &DetectorStats {
        self.inner.stats()
    }
}

/// What a commit publishes for `log`: one entry per touched shard, each
/// a view of the once-decomposed log.
fn publish_entries(log: &CommittedLog) -> Vec<CommittedLog> {
    let mut touched: Vec<usize> = log.index().locs.keys().map(|l| l.shard(SHARDS)).collect();
    touched.sort_unstable();
    touched.dedup();
    if touched.len() <= 1 {
        return Vec::new();
    }
    touched
        .into_iter()
        .map(|s| log.restrict(|loc| loc.shard(SHARDS) == s))
        .collect()
}

/// Mean µs per log of building its commit plan, and of replaying it
/// onto the evolving store, over the loop's sequential logs.
fn plan_and_replay_us(store: &Store, logs: &[Vec<Op>]) -> (f64, f64) {
    let copies = logs.to_vec();
    let t0 = Instant::now();
    for ops in copies {
        let log = CommittedLog::new(ops);
        std::hint::black_box(publish_entries(&log));
    }
    let plan = t0.elapsed().as_secs_f64() * 1e6 / logs.len() as f64;
    let mut store = store.clone();
    let t0 = Instant::now();
    for ops in logs {
        store.apply_log(ops);
    }
    let replay = t0.elapsed().as_secs_f64() * 1e6 / logs.len() as f64;
    (plan, replay)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .map_or(3, |v| v.parse().expect("--reps takes a number"));
    for workload in all_workloads() {
        let table6 = workload.production_inputs()[0];
        let input = InputSpec::new(table6.scale, table6.degree, table6.seed);
        let scenario = workload.build(&input);
        let config = TrainConfig {
            use_abstraction: true,
            verify_symbolic: false,
        };
        let (cache, _) = train(&training_runs(workload.as_ref()), config);
        let clocks = Arc::new(Clocks::default());
        let detector = Arc::new(TimedDetector {
            inner: Arc::new(CachedSequenceDetector::with_relaxations(
                Arc::new(cache.freeze()),
                workload.relaxations(),
            )),
            clocks: Arc::clone(&clocks),
        });
        let tasks: Vec<Task> = scenario
            .tasks
            .iter()
            .map(|task| {
                let (task, clocks) = (task.clone(), Arc::clone(&clocks));
                Task::new(move |tx| {
                    let t0 = Instant::now();
                    task.run(tx);
                    add_since(&clocks.execute_ns, t0);
                })
            })
            .collect();
        let janus = Janus::new(detector)
            .threads(THREADS)
            .ordered(workload.ordered());
        let (mut walls, mut commits, mut retries) = (Vec::new(), 0u64, 0u64);
        for _ in 0..reps {
            let t0 = Instant::now();
            let outcome = janus.run(scenario.store.clone(), tasks.clone());
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(
                (scenario.check)(&outcome.store),
                "{}: bad final state",
                workload.name()
            );
            commits += outcome.stats.commits;
            retries += outcome.stats.retries;
        }
        walls.sort_by(f64::total_cmp);
        let (_, seq) = Janus::run_sequential(scenario.store.clone(), &scenario.tasks);
        let (plan_us, replay_us) = plan_and_replay_us(&scenario.store, &seq.task_logs);
        let per_commit = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / 1e3 / commits as f64;
        println!(
            "{{\"loop\": \"{}\", \"wall_ms\": {:.1}, \"execute_us\": {:.1}, \"plan_us\": {:.1}, \
             \"validate_us\": {:.1}, \"replay_us\": {:.1}, \"extra_passes\": {}, \
             \"max_extra_passes\": {}, \"retries\": {}, \"commits\": {}}}",
            workload.name(),
            walls[walls.len() / 2],
            per_commit(&clocks.execute_ns),
            plan_us,
            per_commit(&clocks.validate_ns),
            replay_us,
            clocks.extra_passes.load(Ordering::Relaxed),
            clocks.max_passes.load(Ordering::Relaxed),
            retries,
            commits,
        );
    }
}

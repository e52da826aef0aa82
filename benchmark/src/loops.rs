//! `paper-loops`: the five loops of the paper's evaluation in library
//! mode — no server, no block pipeline — at their Table 6 production
//! sizes, on two real threads, under the production detector (a trained
//! commutativity cache, frozen), against their own sequential execution.
//! This is the paper's Figure 9 measured on the wall clock.
//!
//! The composition is `janus_workloads::run_workload`'s
//! `SequenceCached { use_abstraction: true }` arm with the cache frozen
//! (as `janus-run --detector cached` freezes it), taken apart so that
//! training happens once, in set-up, and each loop can be repeated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_core::{CommitSink, Janus, Store, Task};
use janus_detect::{CachedSequenceDetector, ConflictDetector};
use janus_log::Op;
use janus_sched::Fifo;
use janus_train::{train, FrozenCache, TrainConfig};
use janus_workloads::{all_workloads, training_runs, InputSpec, Workload};

use crate::report::Tally;
use crate::seams::{traced_task, TracedDetector, TracedOracle, TracedPolicy, TracedSink};
use crate::stats::{geomean, median};
use crate::trace::{span, Name};

/// The loops, in the paper's order.
pub const LOOP_NAMES: [&str; 5] = ["jfilesync", "jgrapht-1", "jgrapht-2", "pmd", "weka"];
/// Nominal repetitions per loop, sized so that each loop accounts for
/// roughly 2 s of parallel wall. How often a loop is actually repeated
/// depends on the time available; these fixed counts are the weights
/// with which the loops' (median) walls enter `txn_per_s`, so that every
/// loop weighs in by its share of the time, not by its share of the
/// transactions.
pub const NOMINAL_REPS: [u64; 5] = [40, 4, 60, 150, 1];
/// Worker threads of every parallel run.
pub const THREADS: usize = 2;

/// One loop, ready to be repeated.
pub struct LoopSetup {
    workload: Box<dyn Workload>,
    store: Store,
    tasks: Vec<Task>,
    check: Box<dyn Fn(&Store) -> bool + Send + Sync>,
    cache: Arc<FrozenCache>,
}

/// All five loops and what preparing them cost.
pub struct Setup {
    /// The loops, in [`LOOP_NAMES`] order.
    pub loops: Vec<LoopSetup>,
    /// Seconds spent in sequential training runs, `train` and `freeze`.
    pub train_s: f64,
}

/// Builds every loop's production scenario from `seed` and trains its
/// commutativity cache on the workload's (fixed) training inputs. With
/// `smoke`, the scenarios are a tenth of their Table 6 size.
pub fn set_up(seed: u64, smoke: bool) -> Setup {
    let mut train_s = 0.0;
    let loops = all_workloads()
        .into_iter()
        .map(|workload| {
            let table6 = workload.production_inputs()[0];
            let scale = if smoke {
                (table6.scale / 10).max(10)
            } else {
                table6.scale
            };
            let input = InputSpec::new(scale, table6.degree, table6.seed.wrapping_add(seed));
            let scenario = workload.build(&input);
            let t0 = Instant::now();
            let runs = training_runs(workload.as_ref());
            let (cache, _report) = train(
                &runs,
                TrainConfig {
                    use_abstraction: true,
                    verify_symbolic: false,
                },
            );
            let cache = Arc::new(cache.freeze());
            train_s += t0.elapsed().as_secs_f64();
            LoopSetup {
                workload,
                store: scenario.store,
                tasks: scenario.tasks,
                check: scenario.check,
                cache,
            }
        })
        .collect::<Vec<_>>();
    debug_assert!(loops
        .iter()
        .map(|l| l.workload.name())
        .eq(LOOP_NAMES.iter().copied()));
    Setup { loops, train_s }
}

/// What repeating one loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopRun {
    /// Wall seconds of each sequential repetition.
    pub seq_wall_s: Vec<f64>,
    /// Wall seconds of each parallel repetition (around `Janus::run`).
    pub par_wall_s: Vec<f64>,
    /// Transactions per repetition.
    pub txns: u64,
    /// Committed transactions over all parallel repetitions.
    pub commits: u64,
    /// Aborted attempts over all parallel repetitions.
    pub retries: u64,
    /// Sum of the parallel regions' wall times x worker threads, ns.
    pub worker_wall_ns: u64,
    /// Sum of shard write-lock waits, ns.
    pub lock_wait_ns: u64,
    /// Longest history a shard retained at the end of a repetition.
    pub history_retained_max: u64,
    /// Operations handed to per-cell conflict checks.
    pub ops_scanned: u64,
    /// History segments dismissed / inspected by the prefilter.
    pub segments_skipped: u64,
    /// See `segments_skipped`.
    pub segments_scanned: u64,
    /// Validation sessions opened, and how many reported a conflict.
    pub detect_queries: u64,
    /// See `detect_queries`.
    pub detect_conflicts: u64,
    /// Unique cache query signatures that hit / missed.
    pub unique_hits: u64,
    /// See `unique_hits`.
    pub unique_misses: u64,
    /// Tasks handed out by the schedule policy.
    pub dispatched: u64,
    /// Committed logs kept at the sink seam (traced runs).
    pub logs: Vec<Vec<Op>>,
}

impl LoopRun {
    /// Median parallel wall, seconds.
    pub fn par_s(&self) -> f64 {
        median(&self.par_wall_s)
    }

    /// Median sequential wall, seconds.
    pub fn seq_s(&self) -> f64 {
        median(&self.seq_wall_s)
    }
}

/// Repeats one loop: sequentially for `seq_budget` (if any), then in
/// parallel for `par_budget`, at least once each, validating the final
/// state of every repetition.
pub fn run_loop(
    setup: &LoopSetup,
    seq_budget: Option<Duration>,
    par_budget: Duration,
    traced: bool,
    tally: &mut Tally,
) -> LoopRun {
    let name = setup.workload.name();
    let mut run = LoopRun {
        txns: setup.tasks.len() as u64,
        ..LoopRun::default()
    };

    if let Some(budget) = seq_budget {
        let started = Instant::now();
        while run.seq_wall_s.is_empty() || started.elapsed() < budget {
            let store = setup.store.clone();
            let t0 = Instant::now();
            let (final_store, _) = Janus::run_sequential(store, &setup.tasks);
            run.seq_wall_s.push(t0.elapsed().as_secs_f64());
            tally.check((setup.check)(&final_store), || {
                format!("{name}: sequential run failed its check")
            });
        }
    }

    let relax = setup.workload.relaxations();
    setup.cache.stats().reset();
    let sink = traced.then(|| Arc::new(TracedSink::new(None)));
    let (detector, tasks): (Arc<dyn ConflictDetector>, Vec<Task>) = if traced {
        let cached = CachedSequenceDetector::with_relaxations(
            TracedOracle::new(Arc::clone(&setup.cache)),
            relax,
        );
        let tasks = setup
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| traced_task(t.clone(), i as u64))
            .collect();
        (Arc::new(TracedDetector::new(Arc::new(cached))), tasks)
    } else {
        let cached = CachedSequenceDetector::with_relaxations(Arc::clone(&setup.cache), relax);
        (Arc::new(cached), setup.tasks.clone())
    };
    let mut janus = Janus::new(Arc::clone(&detector))
        .threads(THREADS)
        .ordered(setup.workload.ordered());
    if let Some(sink) = &sink {
        janus = janus
            .schedule(Arc::new(TracedPolicy::new(Arc::new(Fifo))))
            .commit_sink(Arc::clone(sink) as Arc<dyn CommitSink>);
    }

    let workers = THREADS.min(tasks.len().max(1)) as u64;
    let started = Instant::now();
    while run.par_wall_s.is_empty() || started.elapsed() < par_budget {
        let (store, tasks) = (setup.store.clone(), tasks.clone());
        let t0 = Instant::now();
        let outcome = {
            let _span = traced.then(|| span(Name::CoreRun, run.par_wall_s.len() as u64));
            janus.run(store, tasks)
        };
        run.par_wall_s.push(t0.elapsed().as_secs_f64());
        tally.check((setup.check)(&outcome.store), || {
            format!("{name}: parallel run failed its check")
        });
        tally.ops(
            run.txns,
            run.txns.abs_diff(outcome.stats.commits),
            "loop transactions not committed exactly once",
        );
        run.commits += outcome.stats.commits;
        run.retries += outcome.stats.retries;
        run.worker_wall_ns += outcome.stats.wall.as_nanos() as u64 * workers;
        run.ops_scanned += outcome.stats.detect_ops_scanned;
        run.segments_skipped += outcome.stats.fastpath_segments_skipped;
        run.segments_scanned += outcome.stats.fastpath_segments_scanned;
        run.lock_wait_ns += outcome.shard_stats.lock_wait_ns().sum();
        run.dispatched += outcome.sched.dispatched;
        let retained = outcome.shard_stats.0.iter().map(|s| s.history_len).max();
        run.history_retained_max = run.history_retained_max.max(retained.unwrap_or(0));
    }

    let (queries, conflicts, _, _) = detector.stats().snapshot();
    (run.detect_queries, run.detect_conflicts) = (queries, conflicts);
    (run.unique_hits, run.unique_misses) = setup.cache.stats().unique_counts();
    run.logs = sink.map_or_else(Vec::new, |s| s.take_logs());
    run
}

/// Every loop repeated under one time budget, split evenly between the
/// loops. A plain run spends a third of each loop's share on the
/// sequential base line and the rest on the parallel runs; a traced run
/// spends it all on parallel runs through the wrappers.
pub fn run_all(setup: &Setup, budget: Duration, traced: bool, tally: &mut Tally) -> Vec<LoopRun> {
    let share = budget / setup.loops.len() as u32;
    setup
        .loops
        .iter()
        .map(|l| {
            if traced {
                run_loop(l, None, share, true, tally)
            } else {
                run_loop(l, Some(share / 3), share * 2 / 3, false, tally)
            }
        })
        .collect()
}

/// Committed transactions per second of parallel wall over all loops:
/// total commits over total parallel wall of the nominal schedule —
/// loop `i` repeated [`NOMINAL_REPS`]`[i]` times at its median measured
/// wall, so that one preempted repetition does not decide the figure.
pub fn txn_per_s(runs: &[LoopRun]) -> f64 {
    let (mut commits, mut wall) = (0.0, 0.0);
    for (run, reps) in runs.iter().zip(NOMINAL_REPS) {
        commits += (reps * run.txns) as f64;
        wall += reps as f64 * run.par_s();
    }
    if wall > 0.0 {
        commits / wall
    } else {
        0.0
    }
}

/// Geometric mean over the loops of sequential wall / parallel wall.
pub fn loop_speedup(runs: &[LoopRun]) -> f64 {
    let ratios: Vec<f64> = runs
        .iter()
        .map(|r| {
            if r.par_s() > 0.0 {
                r.seq_s() / r.par_s()
            } else {
                0.0
            }
        })
        .collect();
    geomean(&ratios)
}

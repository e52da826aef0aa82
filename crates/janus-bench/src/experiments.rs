//! Experiment drivers for the paper's tables and figures.

use std::sync::Arc;
use std::time::Instant;

use janus_core::{Janus, PanicPolicy, RunStats, Store, Task};
use janus_detect::{
    CachedSequenceDetector, ConflictDetector, MapState, SequenceDetector, WriteSetDetector,
};
use janus_fault::FaultPlan;
use janus_log::{ClassId, CommittedLog, HistoryWindow, LocId, Op, OpKind, ScalarOp};
use janus_relational::Value;
use janus_train::{train, FrozenCache, TrainConfig};
use janus_workloads::{all_workloads, training_runs, InputSpec, Workload};

use crate::sim::{sequential_baseline, simulate};

/// The thread counts of Figures 9 and 10.
pub const THREAD_GRID: [usize; 5] = [1, 2, 4, 6, 8];

/// One measured point of the Figure 9/10 grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Detector label ("write-set" / "sequence").
    pub detector: &'static str,
    /// Virtual threads.
    pub threads: usize,
    /// Virtual-time speedup over the sequential baseline.
    pub speedup: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub retries: u64,
    /// Whether the final state passed the workload's check.
    pub check_ok: bool,
}

impl GridPoint {
    /// Retries per transaction (Figure 10's metric).
    pub fn retry_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.retries as f64 / self.commits as f64
        }
    }
}

/// The production input used for the grid: the first Table 6 production
/// input, optionally scaled down for quick runs.
pub fn grid_input(workload: &dyn Workload, quick: bool) -> InputSpec {
    let input = workload.production_inputs()[0];
    if quick {
        InputSpec::new(input.scale.min(120), input.degree, input.seed)
    } else {
        input
    }
}

/// Trains the workload's commutativity cache (Figure 6's offline path)
/// and freezes it for querying.
pub fn trained_cache(workload: &dyn Workload, use_abstraction: bool) -> FrozenCache {
    let runs = training_runs(workload);
    let (cache, _) = train(
        &runs,
        TrainConfig {
            use_abstraction,
            verify_symbolic: false,
        },
    );
    cache.freeze()
}

/// Runs the Figure 9/10 grid: every workload, write-set vs cached
/// sequence-based detection, across [`THREAD_GRID`] virtual threads.
pub fn speedup_retry_grid(quick: bool) -> Vec<GridPoint> {
    let mut out = Vec::new();
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, quick);
        let scenario = w.build(&input);
        let (_, baseline) = sequential_baseline(scenario.store, &scenario.tasks);
        let cache = Arc::new(trained_cache(w, true));
        for &threads in &THREAD_GRID {
            for (label, detector) in detector_pair(w, &cache) {
                let scenario = w.build(&input);
                let (final_store, metrics) = simulate(
                    scenario.store,
                    &scenario.tasks,
                    &detector,
                    threads,
                    w.ordered(),
                );
                out.push(GridPoint {
                    workload: w.name(),
                    detector: label,
                    threads,
                    speedup: baseline / metrics.virtual_wall.max(1e-12),
                    commits: metrics.commits,
                    retries: metrics.retries,
                    check_ok: (scenario.check)(&final_store),
                });
            }
        }
    }
    out
}

/// The two detectors of the §7 comparison, sharing one trained cache
/// (frozen: the measured path is the lock-free production form).
fn detector_pair(
    workload: &dyn Workload,
    cache: &Arc<FrozenCache>,
) -> Vec<(&'static str, Arc<dyn ConflictDetector>)> {
    vec![
        ("write-set", Arc::new(WriteSetDetector::new())),
        (
            "sequence",
            Arc::new(CachedSequenceDetector::with_relaxations(
                Arc::clone(cache),
                workload.relaxations(),
            )),
        ),
    ]
}

/// One row of Figure 11: unique-query cache miss rates at 8 threads,
/// with and without sequence abstraction.
#[derive(Debug, Clone)]
pub struct MissRow {
    /// Workload name.
    pub workload: &'static str,
    /// Unique hits/misses with Kleene-cross abstraction.
    pub with_abstraction: (u64, u64),
    /// Unique hits/misses without abstraction.
    pub without_abstraction: (u64, u64),
}

impl MissRow {
    fn rate(counts: (u64, u64)) -> Option<f64> {
        let total = counts.0 + counts.1;
        (total > 0).then(|| 100.0 * counts.1 as f64 / total as f64)
    }

    /// Miss rate with abstraction, in percent.
    pub fn miss_with(&self) -> Option<f64> {
        Self::rate(self.with_abstraction)
    }

    /// Miss rate without abstraction, in percent.
    pub fn miss_without(&self) -> Option<f64> {
        Self::rate(self.without_abstraction)
    }
}

/// Runs the Figure 11 experiment: for each workload, train with and
/// without abstraction, run the production inputs on 8 virtual threads,
/// and report unique-query miss rates.
pub fn figure11(quick: bool) -> Vec<MissRow> {
    let mut out = Vec::new();
    for workload in all_workloads() {
        let w = workload.as_ref();
        let mut counts = [(0u64, 0u64); 2];
        for (slot, use_abstraction) in [(0, true), (1, false)] {
            let cache = trained_cache(w, use_abstraction);
            let detector = Arc::new(CachedSequenceDetector::with_relaxations(
                cache,
                w.relaxations(),
            ));
            let dyn_det: Arc<dyn ConflictDetector> = detector.clone();
            let inputs = if quick {
                vec![grid_input(w, true)]
            } else {
                w.production_inputs()
            };
            for input in inputs {
                let scenario = w.build(&input);
                let (_, _) = simulate(scenario.store, &scenario.tasks, &dyn_det, 8, w.ordered());
            }
            counts[slot] = detector.oracle().stats().unique_counts();
        }
        out.push(MissRow {
            workload: w.name(),
            with_abstraction: counts[0],
            without_abstraction: counts[1],
        });
    }
    out
}

/// Per-class conflict attribution under write-set detection at 8 virtual
/// threads — the data behind §7.2's discussion of which shared structures
/// serialize each benchmark.
pub fn conflict_classes(quick: bool) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, quick);
        let detector = Arc::new(WriteSetDetector::new());
        let dyn_det: Arc<dyn ConflictDetector> = detector.clone();
        let scenario = w.build(&input);
        let _ = simulate(scenario.store, &scenario.tasks, &dyn_det, 8, w.ordered());
        for (class, n) in detector.stats().conflicts_by_class().into_iter().take(4) {
            out.push((w.name().to_string(), class.label().to_string(), n));
        }
    }
    out
}

/// Table 5 rows: benchmark characteristics.
pub fn table5() -> Vec<Vec<String>> {
    all_workloads()
        .iter()
        .map(|w| {
            vec![
                w.name().to_string(),
                w.source().to_string(),
                w.description().to_string(),
                w.patterns().join(", "),
            ]
        })
        .collect()
}

/// Table 6 rows: training and production inputs.
pub fn table6() -> Vec<Vec<String>> {
    all_workloads()
        .iter()
        .map(|w| {
            let (kind, training, production) = w.input_description();
            vec![
                w.name().to_string(),
                kind.to_string(),
                training.to_string(),
                production.to_string(),
            ]
        })
        .collect()
}

/// One row of the commit-pipeline comparison: validation cost at one
/// window size, flat-reclone vs zero-copy-incremental, with four clock
/// advances observed mid-validation.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Committed segments in the window.
    pub segments: usize,
    /// Total operations in the window.
    pub window_ops: usize,
    /// Mean validation cost re-flattening and re-detecting from scratch
    /// at every clock advance, in seconds.
    pub flat_secs: f64,
    /// Mean validation cost of one incremental session extended with
    /// each delta, in seconds.
    pub incremental_secs: f64,
}

impl PipelineRow {
    /// How much cheaper incremental validation is.
    pub fn speedup(&self) -> f64 {
        self.flat_secs / self.incremental_secs.max(1e-12)
    }
}

/// Clock advances observed during one measured validation.
const PIPELINE_ADVANCES: usize = 4;

fn pipeline_add(loc: u64, delta: i64, v: &mut Value) -> Op {
    Op::execute(
        LocId(loc),
        ClassId::new("work"),
        OpKind::Scalar(ScalarOp::Add(delta)),
        v,
    )
    .0
}

fn pipeline_balanced_log(loc: u64, len: usize) -> Vec<Op> {
    let mut v = Value::int(0);
    (0..len / 2)
        .flat_map(|i| [i as i64 + 1, -(i as i64 + 1)])
        .map(|d| pipeline_add(loc, d, &mut v))
        .collect()
}

/// Measures validation cost vs. window size: the pre-pipeline
/// flat-reclone strategy (every clock advance flattens `[begin, now)`
/// into a fresh `Vec<Op>` and re-detects from scratch) against the
/// zero-copy incremental session (decompose-once segments, delta-only
/// re-validation). Most segments touch locations foreign to the
/// transaction, so the per-location index lets the incremental path skip
/// them entirely — its cost stays sublinear in the window.
pub fn commit_pipeline(quick: bool) -> Vec<PipelineRow> {
    const SEG_OPS: usize = 8;
    let iters = if quick { 40 } else { 200 };
    let sizes: &[usize] = if quick {
        &[8, 32, 128]
    } else {
        &[8, 32, 128, 512]
    };

    let mut entry = MapState::default();
    for loc in 0..9 {
        entry.0.insert(LocId(loc), Value::int(0));
    }
    let txn_ops = pipeline_balanced_log(0, SEG_OPS);
    let txn = CommittedLog::new(txn_ops.clone());
    let det = SequenceDetector::new();

    let mut out = Vec::new();
    for &n in sizes {
        let segs: Vec<Arc<CommittedLog>> = (0..n)
            .map(|i| {
                let loc = if i % 4 == 0 { 0 } else { 1 + (i % 8) as u64 };
                Arc::new(CommittedLog::new(pipeline_balanced_log(loc, SEG_OPS)))
            })
            .collect();
        let cut = |j: usize| n * j / PIPELINE_ADVANCES;

        let t0 = Instant::now();
        for _ in 0..iters {
            for j in 1..=PIPELINE_ADVANCES {
                let window: Vec<Op> = segs[..cut(j)]
                    .iter()
                    .flat_map(|s| s.ops().iter().cloned())
                    .collect();
                std::hint::black_box(det.detect_ops(&entry, &txn_ops, &window));
            }
        }
        let flat_secs = t0.elapsed().as_secs_f64() / iters as f64;

        let t0 = Instant::now();
        for _ in 0..iters {
            let mut session = det.begin_validation(&entry, &txn);
            for j in 1..=PIPELINE_ADVANCES {
                let delta = &segs[cut(j - 1)..cut(j)];
                std::hint::black_box(session.extend(&HistoryWindow::new(delta)));
            }
        }
        let incremental_secs = t0.elapsed().as_secs_f64() / iters as f64;

        out.push(PipelineRow {
            segments: n,
            window_ops: n * SEG_OPS,
            flat_secs,
            incremental_secs,
        });
    }
    out
}

/// Runs every workload through the real threaded runtime under write-set
/// detection with the lifecycle recorder attached, returning each
/// workload's name, recorded trace and run statistics. The traces drive
/// the `figures --attribution` report: which classes and locations cause
/// the aborts that serialize each benchmark.
pub fn attribution_traces(quick: bool) -> Vec<(String, janus_obs::Trace, RunStats)> {
    let threads = if quick { 4 } else { 8 };
    let mut out = Vec::new();
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = grid_input(w, quick);
        let scenario = w.build(&input);
        let recorder = janus_obs::Recorder::new();
        let det: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
        let outcome = Janus::new(det)
            .threads(threads)
            .ordered(w.ordered())
            .recorder(Arc::clone(&recorder))
            .run(scenario.store, scenario.tasks);
        out.push((w.name().to_string(), recorder.finish(), outcome.stats));
    }
    // One chaos entry: the first workload re-run under seeded fault
    // injection with panic isolation, so the attribution report also
    // exercises the `Failed` abort ledger (faults injected, tasks
    // failed, and the split abort counts all flow through the trace).
    if let Some(workload) = all_workloads().into_iter().next() {
        let w = workload.as_ref();
        let input = grid_input(w, quick);
        let scenario = w.build(&input);
        let recorder = janus_obs::Recorder::new();
        let det: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
        let outcome = Janus::new(det)
            .threads(threads)
            .ordered(w.ordered())
            .panic_policy(PanicPolicy::Isolate)
            .faults(Arc::new(FaultPlan::seeded(42, 0.05)))
            .recorder(Arc::clone(&recorder))
            .run(scenario.store, scenario.tasks);
        out.push((
            format!("{} (faulted: seed 42, rate 0.05, isolate)", w.name()),
            recorder.finish(),
            outcome.stats,
        ));
    }
    out
}

/// Runs a contended workload through the real threaded runtime and
/// returns its [`RunStats`], whose detection-cost counters (ops scanned,
/// delta re-validations, zero-copy windows) quantify what the pipeline
/// actually did during live validation.
pub fn pipeline_counters(quick: bool) -> (RunStats, janus_core::ShardReport) {
    use std::sync::atomic::{AtomicU64, Ordering};

    let n_tasks = if quick { 24 } else { 96 };
    let threads = 4usize;
    let mut store = Store::new();
    let work = store.alloc("work", Value::int(0));
    // Half the tasks contend on the shared counter; the other half run
    // on private locations with disjoint footprints — the segments they
    // commit are exactly what the fingerprint prefilter dismisses in
    // O(1) during everyone else's validation.
    let privates: Vec<LocId> = (0..n_tasks)
        .map(|i| store.alloc(ClassId::new(format!("private{i}")), Value::int(0)))
        .collect();
    // A first wave of `threads` transactions holds at a spin barrier
    // until all of them have begun, so they genuinely overlap and each
    // validates against its peers' committed segments. Without this, a
    // machine with fewer cores than workers timeslices each task to
    // commit within its slice and every validation window is empty —
    // the counters would measure the scheduler, not the pipeline.
    let begun = Arc::new(AtomicU64::new(0));
    let wave = threads.min(n_tasks) as u64;
    let tasks: Vec<Task> = (1..=n_tasks as i64)
        .map(|w| {
            let mine = privates[(w - 1) as usize];
            let shared = w % 2 == 0;
            let begun = Arc::clone(&begun);
            Task::new(move |tx| {
                if shared {
                    tx.add(work, w);
                }
                tx.add(mine, w);
                begun.fetch_add(1, Ordering::SeqCst);
                while begun.load(Ordering::SeqCst) < wave {
                    std::thread::yield_now();
                }
                janus_workloads::local_work(20_000);
                if shared {
                    tx.add(work, -w);
                }
            })
        })
        .collect();
    let det: Arc<dyn ConflictDetector> = Arc::new(SequenceDetector::new());
    let outcome = Janus::new(det).threads(threads).run(store, tasks);
    (outcome.stats, outcome.shard_stats)
}

/// One mode of the block-pipeline comparison: the `batch.*` report plus
/// the measured stream wall clock.
pub struct BlockPoint {
    /// `"barrier"` or `"pipelined"`.
    pub mode: &'static str,
    /// Stream wall clock, seconds.
    pub wall_secs: f64,
    /// The pipeline's `batch.*` counters.
    pub report: janus_block::BatchReport,
}

impl BlockPoint {
    /// Committed transactions per second over the stream.
    pub fn txns_per_s(&self) -> f64 {
        self.report.txns_committed as f64 / self.wall_secs
    }
}

/// Streams service-sized blocks (one transaction per worker, each with
/// an I/O-shaped think time) through the [`janus_block::BlockExecutor`]
/// with and without pipelining. The barrier mode fully drains each
/// block before the next starts; the pipelined mode overlaps block N+1
/// with block N's validation and commit.
pub fn block_pipeline(quick: bool) -> Vec<BlockPoint> {
    use janus_block::{BlockExecutor, PipelineMode};

    let threads = 4usize;
    let blocks = if quick { 12 } else { 32 };
    let think = std::time::Duration::from_micros(if quick { 600 } else { 1000 });
    [PipelineMode::Barrier, PipelineMode::Pipelined]
        .into_iter()
        .map(|mode| {
            let mut store = Store::new();
            let hot = store.alloc("hot", Value::int(0));
            let janus = Janus::new(Arc::new(SequenceDetector::new()) as Arc<dyn ConflictDetector>)
                .threads(threads);
            let mut exec = BlockExecutor::new(janus, store, mode);
            let t0 = Instant::now();
            for b in 0..blocks as i64 {
                let tasks: Vec<Task> = (0..threads as i64)
                    .map(|t| {
                        Task::new(move |tx| {
                            std::thread::sleep(think);
                            tx.add(hot, b * 10 + t);
                        })
                    })
                    .collect();
                exec.submit(tasks);
            }
            exec.drain();
            let wall = t0.elapsed();
            let point = BlockPoint {
                mode: match mode {
                    PipelineMode::Barrier => "barrier",
                    PipelineMode::Pipelined => "pipelined",
                },
                wall_secs: wall.as_secs_f64(),
                report: exec.stats().report(exec.stream_wall_micros()),
            };
            let (store, _, _) = exec.finish();
            let expected: i64 = (0..blocks as i64)
                .flat_map(|b| (0..threads as i64).map(move |t| b * 10 + t))
                .sum();
            assert_eq!(
                store.value(hot).and_then(Value::as_int),
                Some(expected),
                "block stream must commit every transaction exactly once"
            );
            point
        })
        .collect()
}

/// Aggregate headline numbers from a grid (speedups and retry ratios at
/// the given thread count).
pub fn headline(grid: &[GridPoint], threads: usize) -> Headline {
    let pick = |detector: &str| -> Vec<&GridPoint> {
        grid.iter()
            .filter(|p| p.detector == detector && p.threads == threads)
            .collect()
    };
    let mean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let seq = pick("sequence");
    let ws = pick("write-set");
    Headline {
        threads,
        seq_mean_speedup: mean(&seq.iter().map(|p| p.speedup).collect::<Vec<_>>()),
        seq_max_speedup: seq.iter().map(|p| p.speedup).fold(0.0, f64::max),
        ws_mean_speedup: mean(&ws.iter().map(|p| p.speedup).collect::<Vec<_>>()),
        seq_mean_retry_ratio: mean(&seq.iter().map(|p| p.retry_ratio()).collect::<Vec<_>>()),
        ws_mean_retry_ratio: mean(&ws.iter().map(|p| p.retry_ratio()).collect::<Vec<_>>()),
    }
}

/// The paper's headline aggregates (compare §7.2).
#[derive(Debug, Clone)]
pub struct Headline {
    /// Thread count the aggregates are taken at.
    pub threads: usize,
    /// Mean sequence-based speedup (paper: 1.5x at 8 threads).
    pub seq_mean_speedup: f64,
    /// Max sequence-based speedup (paper: ~2.5x, JFileSync).
    pub seq_max_speedup: f64,
    /// Mean write-set speedup (paper: 0.6x).
    pub ws_mean_speedup: f64,
    /// Mean sequence retries/txn (paper: 0.07).
    pub seq_mean_retry_ratio: f64,
    /// Mean write-set retries/txn (paper: 1.51 — 22x more).
    pub ws_mean_retry_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_five_rows() {
        assert_eq!(table5().len(), 5);
        assert_eq!(table6().len(), 5);
    }

    #[test]
    fn grid_input_quick_caps_scale() {
        for w in all_workloads() {
            let q = grid_input(w.as_ref(), true);
            assert!(q.scale <= 120);
            let f = grid_input(w.as_ref(), false);
            assert!(f.scale >= q.scale);
        }
    }

    #[test]
    fn headline_aggregation() {
        let grid = vec![
            GridPoint {
                workload: "a",
                detector: "sequence",
                threads: 8,
                speedup: 2.0,
                commits: 10,
                retries: 1,
                check_ok: true,
            },
            GridPoint {
                workload: "a",
                detector: "write-set",
                threads: 8,
                speedup: 0.5,
                commits: 10,
                retries: 20,
                check_ok: true,
            },
        ];
        let h = headline(&grid, 8);
        assert!((h.seq_mean_speedup - 2.0).abs() < 1e-9);
        assert!((h.ws_mean_retry_ratio - 2.0).abs() < 1e-9);
        assert!((h.seq_mean_retry_ratio - 0.1).abs() < 1e-9);
    }
}

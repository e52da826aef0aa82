//! Experiment drivers for the paper's tables and figures.

use std::sync::Arc;

use janus_detect::{CachedSequenceDetector, ConflictDetector, WriteSetDetector};
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

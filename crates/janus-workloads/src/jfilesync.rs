//! JFileSync: directory-pair comparison (Figure 2 of the paper).
//!
//! The main loop of `JFSComparison` iterates over directory pairs,
//! pushing the number of items started and the pending weight onto the
//! shared progress monitor's lists, writing the pair's root URIs into
//! shared fields, polling the progress object for cancellation, and
//! popping the monitor entries once the (recursive) comparison finishes.
//! Every iteration leaves the monitor exactly as it found it — the
//! *identity* pattern — while the root-URI fields are *shared-as-local*.

use janus_adt::{Cell, StackList};
use janus_core::{Store, Task, TxView};
use janus_detect::RelaxationSpec;
use janus_relational::Scalar;

use crate::inputs::{DirTree, InputSpec};
use crate::util::local_work;
use crate::{Scenario, Workload};

/// Work units per file compared (tunes the local-compute share).
const WORK_PER_FILE: u64 = 150_000;

/// The JFileSync benchmark.
#[derive(Debug, Default)]
pub struct JFileSync;

impl JFileSync {
    /// Compares one directory pair recursively, mirroring the push/pop
    /// discipline of `compareFiles`.
    fn compare(
        tx: &mut TxView,
        tree: &DirTree,
        started: &StackList,
        weight: &StackList,
        canceled: &Cell,
    ) {
        if canceled.get(tx) == Scalar::Bool(true) {
            return;
        }
        started.push(tx, tree.files as i64);
        weight.push(tx, tree.weight as i64);
        // The actual file comparison: pure local work.
        local_work(tree.files as u64 * WORK_PER_FILE);
        for child in &tree.children {
            Self::compare(tx, child, started, weight, canceled);
        }
        started.pop(tx);
        weight.pop(tx);
    }
}

impl Workload for JFileSync {
    fn name(&self) -> &'static str {
        "jfilesync"
    }

    fn source(&self) -> &'static str {
        "JFileSync 2.2"
    }

    fn description(&self) -> &'static str {
        "Utility for synchronizing pairs of directories"
    }

    fn patterns(&self) -> &'static [&'static str] {
        &["identity", "shared-as-local"]
    }

    fn input_description(&self) -> (&'static str, &'static str, &'static str) {
        (
            "List of directory pairs",
            "random lists of length 5 / 10",
            "random lists of length 25 / 100",
        )
    }

    fn relaxations(&self) -> RelaxationSpec {
        // Unordered run: the automatic WAW inference admits the
        // shared-as-local root-URI fields (write before read).
        RelaxationSpec::new().with_ooo_inference()
    }

    fn training_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(5, 3, 11), InputSpec::new(10, 3, 12)]
    }

    fn production_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(25, 3, 13), InputSpec::new(100, 3, 14)]
    }

    fn build(&self, input: &InputSpec) -> Scenario {
        let mut rng = input.rng();
        let pairs: Vec<DirTree> = (0..input.scale)
            .map(|_| DirTree::generate(&mut rng, input.degree, 2))
            .collect();

        let mut store = Store::new();
        let started = StackList::alloc(&mut store, "monitor.itemsStarted");
        let weight = StackList::alloc(&mut store, "monitor.itemsWeight");
        let root_src = Cell::alloc(&mut store, "monitor.rootUriSrc", "");
        let root_tgt = Cell::alloc(&mut store, "monitor.rootUriTgt", "");
        let canceled = Cell::alloc(&mut store, "progress.canceled", false);

        let tasks: Vec<Task> = pairs
            .iter()
            .enumerate()
            .map(|(i, tree)| {
                let tree = tree.clone();
                let started = started.clone();
                let weight = weight.clone();
                Task::new(move |tx: &mut TxView| {
                    // monitor.itemsStarted.add(2); monitor.itemsWeight.add(1);
                    started.push(tx, 2);
                    weight.push(tx, 1);
                    // Shared-as-local root URI fields.
                    root_src.set(tx, format!("src/pair{i}").as_str());
                    root_tgt.set(tx, format!("tgt/pair{i}").as_str());
                    if canceled.get(tx) != Scalar::Bool(true) {
                        Self::compare(tx, &tree, &started, &weight, &canceled);
                    }
                    started.pop(tx);
                    weight.pop(tx);
                })
            })
            .collect();

        let started_check = started.clone();
        let weight_check = weight.clone();
        Scenario {
            store,
            tasks,
            check: Box::new(move |store| {
                started_check.depth(store) == 0 && weight_check.depth(store) == 0
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_detect::{CachedSequenceDetector, SequenceDetector, WriteSetDetector};
    use janus_train::TrainConfig;
    use std::sync::Arc;

    #[test]
    fn sequential_run_is_identity_on_monitor() {
        let w = JFileSync;
        let scenario = w.build(&InputSpec::new(4, 3, 1));
        let (final_store, run) = Janus::run_sequential(scenario.store, &scenario.tasks);
        assert!((scenario.check)(&final_store));
        assert_eq!(run.task_logs.len(), 4);
    }

    #[test]
    fn parallel_sequence_detection_preserves_state() {
        let w = JFileSync;
        let scenario = w.build(&InputSpec::new(8, 3, 2));
        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
    }

    #[test]
    fn write_set_detection_also_correct_but_conflicted() {
        let w = JFileSync;
        let scenario = w.build(&InputSpec::new(6, 3, 3));
        let janus = Janus::new(Arc::new(WriteSetDetector::new())).threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));

        // Retry comparison: the sequence detector never aborts more than
        // the write-set baseline on the same input. (A strict `> 0` on
        // the baseline would be timing-dependent: with fast tasks the
        // transactions may simply never overlap.)
        let scenario_seq = w.build(&InputSpec::new(6, 3, 3));
        let seq = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4);
        let seq_outcome = seq.run(scenario_seq.store, scenario_seq.tasks);
        assert!(seq_outcome.stats.retries <= outcome.stats.retries);
    }

    #[test]
    fn trained_cache_covers_production() {
        let w = JFileSync;
        let train_scenario = w.build(&w.training_inputs()[0]);
        let (_, cache, report) = Janus::train_sequential(
            train_scenario.store,
            &train_scenario.tasks,
            TrainConfig::default(),
        );
        assert!(report.entries_added > 0);

        let prod = w.build(&InputSpec::new(12, 3, 99));
        let detector = Arc::new(CachedSequenceDetector::with_relaxations(
            cache.freeze(),
            w.relaxations(),
        ));
        let janus = Janus::new(detector.clone()).threads(4);
        let outcome = janus.run(prod.store, prod.tasks);
        assert!((prod.check)(&outcome.store));
    }
}

//! PMD: per-file rule analysis (Figure 4 of the paper).
//!
//! PMD's main loop iterates over Java source files; each iteration
//! writes the file's name and handle into the shared `RuleContext`
//! before reading them back deep inside the rule implementations
//! (*shared-as-local*), and rules stash per-run attributes in the
//! context (`setAttribute(COUNTER_LABEL, new AtomicLong())` — a WAW
//! chain on a fixed key), plus a shared violation counter (*reduction*).

use janus_adt::{Cell, Counter, MapAdt};
use janus_core::{Store, Task, TxView};
use janus_detect::RelaxationSpec;

use crate::inputs::{InputSpec, SourceFile};
use crate::util::local_work;
use crate::{Scenario, Workload};

/// Work units per token analyzed.
const WORK_PER_TOKEN: u64 = 4_000;

/// The attribute key the counter rule uses (`COUNTER_LABEL`).
const COUNTER_LABEL: i64 = 1;

/// The PMD benchmark.
#[derive(Debug, Default)]
pub struct Pmd;

impl Workload for Pmd {
    fn name(&self) -> &'static str {
        "pmd"
    }

    fn source(&self) -> &'static str {
        "PMD 4.2"
    }

    fn description(&self) -> &'static str {
        "Java source code analyzer"
    }

    fn patterns(&self) -> &'static [&'static str] {
        &["shared-as-local", "reduction"]
    }

    fn input_description(&self) -> (&'static str, &'static str, &'static str) {
        (
            "List of Java source files",
            "random lists of length 5 / 10",
            "random lists of length 25 / 100",
        )
    }

    fn relaxations(&self) -> RelaxationSpec {
        // Out-of-order run: the automatic inference tolerates the WAW
        // chains on ctx.sourceCodeFilename / ctx.sourceCodeFile and the
        // per-key attribute writes, because every read is preceded by the
        // task's own write (Figure 4's discussion).
        RelaxationSpec::new().with_ooo_inference()
    }

    fn training_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(5, 120, 41), InputSpec::new(10, 120, 42)]
    }

    fn production_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(25, 120, 43), InputSpec::new(100, 120, 44)]
    }

    fn build(&self, input: &InputSpec) -> Scenario {
        let mut rng = input.rng();
        let files: Vec<SourceFile> = (0..input.scale)
            .map(|i| SourceFile::generate(&mut rng, i, input.degree))
            .collect();

        let mut store = Store::new();
        let ctx_filename = Cell::alloc(&mut store, "ctx.sourceCodeFilename", "");
        let ctx_file = Cell::alloc(&mut store, "ctx.sourceCodeFile", 0i64);
        let ctx_attrs = MapAdt::alloc(&mut store, "ctx.attributes");
        let violations = Counter::alloc(&mut store, "report.violations", 0);

        let tasks: Vec<Task> = files
            .iter()
            .enumerate()
            .map(|(i, file)| {
                let file = file.clone();
                let ctx_attrs = ctx_attrs.clone();
                Task::new(move |tx: &mut TxView| {
                    // ctx.sourceCodeFilename = niceFileName;
                    // ctx.sourceCodeFile = new File(niceFileName);
                    ctx_filename.set(tx, file.name.as_str());
                    ctx_file.set(tx, i as i64);

                    // rs.start(ctx): the counter rule stores a fresh
                    // accumulator under COUNTER_LABEL.
                    ctx_attrs.put(tx, COUNTER_LABEL, 0i64);

                    // Rule analysis: scan the token stream (local work),
                    // reading the ctx fields the loop wrote
                    // (shared-as-local) and bumping the stored attribute.
                    let _name = ctx_filename.get(tx);
                    let mut hits = 0i64;
                    for &t in &file.tokens {
                        if t % 16 == 0 {
                            hits += 1;
                        }
                    }
                    local_work(file.tokens.len() as u64 * WORK_PER_TOKEN);
                    let acc = ctx_attrs
                        .get(tx, COUNTER_LABEL)
                        .and_then(|s| s.as_int())
                        .unwrap_or(0);
                    ctx_attrs.put(tx, COUNTER_LABEL, acc + hits);

                    // rs.end(ctx): fold the attribute into the shared
                    // report (reduction) and drop it.
                    let total = ctx_attrs
                        .get(tx, COUNTER_LABEL)
                        .and_then(|s| s.as_int())
                        .unwrap_or(0);
                    violations.add(tx, total);
                    ctx_attrs.remove(tx, COUNTER_LABEL);
                })
            })
            .collect();

        // Expected violations, computed directly from the inputs.
        let expected: i64 = files
            .iter()
            .map(|f| f.tokens.iter().filter(|&&t| t % 16 == 0).count() as i64)
            .sum();
        Scenario {
            store,
            tasks,
            check: Box::new(move |store| violations.value(store) == expected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_detect::{SequenceDetector, WriteSetDetector};
    use std::sync::Arc;

    #[test]
    fn sequential_run_counts_violations() {
        let w = Pmd;
        let scenario = w.build(&InputSpec::new(6, 80, 1));
        let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
        assert!((scenario.check)(&final_store));
    }

    #[test]
    fn parallel_run_with_inference_is_correct() {
        let w = Pmd;
        let scenario = w.build(&InputSpec::new(12, 80, 2));
        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
    }

    #[test]
    fn write_set_is_correct_but_serialized() {
        let w = Pmd;
        let scenario = w.build(&InputSpec::new(10, 80, 3));
        let janus = Janus::new(Arc::new(WriteSetDetector::new())).threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
    }

    #[test]
    fn ctx_fields_use_shared_as_local_discipline() {
        let w = Pmd;
        let scenario = w.build(&InputSpec::new(3, 60, 4));
        let (_, run) = Janus::run_sequential(scenario.store, &scenario.tasks);
        // In every task log, the first op on ctx.sourceCodeFilename is a
        // write.
        for log in &run.task_logs {
            let first = log
                .iter()
                .find(|op| op.class.label() == "ctx.sourceCodeFilename")
                .expect("ctx accessed");
            assert!(first.is_write());
        }
    }
}

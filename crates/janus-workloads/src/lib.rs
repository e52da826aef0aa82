//! Rust reimplementations of the five real-world benchmarks of the JANUS
//! evaluation (§7, Tables 5 & 6).
//!
//! Each workload reproduces, op-for-op, the shared-state access pattern
//! of the parallelized loop in the original Java application — the
//! property the evaluation actually depends on — while the pure local
//! computation is replaced by synthetic work of equivalent shape
//! ([`local_work`]). Inputs are generated per Table 6 from seeded RNGs.
//!
//! | Workload | Original | Prevalent patterns |
//! |---|---|---|
//! | [`JFileSync`] | JFileSync 2.2 directory comparison | identity, shared-as-local |
//! | [`JGraphTColor`] | JGraphT 0.8.1 greedy coloring | shared-as-local, spurious-reads |
//! | [`JGraphTOrder`] | JGraphT 0.8.1 saturation-degree ordering | shared-as-local, equal-writes |
//! | [`Pmd`] | PMD 4.2 source analyzer | shared-as-local, reduction |
//! | [`Weka`] | Weka 3.6.4 graph visualizer | equal-writes |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod inputs;
mod jfilesync;
mod jgrapht_color;
mod jgrapht_order;
mod pmd;
mod util;
mod weka;

pub use catalog::{all_workloads, workload_by_name};
pub use inputs::{DirTree, Graph, InputSpec, SourceFile};
pub use jfilesync::JFileSync;
pub use jgrapht_color::JGraphTColor;
pub use jgrapht_order::JGraphTOrder;
pub use pmd::Pmd;
pub use util::local_work;
pub use weka::Weka;

use janus_core::{Janus, Store, Task};
use janus_detect::RelaxationSpec;
use janus_train::TrainingRun;

/// A ready-to-run instance of a workload: the initial store, the tasks,
/// and a predicate validating the final state.
pub struct Scenario {
    /// The initial shared state.
    pub store: Store,
    /// One task per loop iteration of the original benchmark.
    pub tasks: Vec<Task>,
    /// Validates the final state.
    pub check: Box<dyn Fn(&Store) -> bool + Send + Sync>,
}

/// One of the five evaluation benchmarks.
pub trait Workload: Send + Sync {
    /// Short identifier ("jfilesync", "jgrapht-1", ...).
    fn name(&self) -> &'static str;

    /// The original application and version (Table 5).
    fn source(&self) -> &'static str;

    /// One-line description (Table 5).
    fn description(&self) -> &'static str;

    /// The prevalent commutativity patterns (Table 5).
    fn patterns(&self) -> &'static [&'static str];

    /// Input characterization for Table 6: (input kind, training data,
    /// production data).
    fn input_description(&self) -> (&'static str, &'static str, &'static str);

    /// Whether the benchmark requires in-order commits (the greedy
    /// coloring's ordered traversal).
    fn ordered(&self) -> bool {
        false
    }

    /// The consistency-relaxation specification the benchmark's author
    /// provides (§5.3) — the analogue of the abstraction specifications
    /// written for the paper's experiments.
    fn relaxations(&self) -> RelaxationSpec;

    /// The training inputs (Table 6).
    fn training_inputs(&self) -> Vec<InputSpec>;

    /// The production inputs (Table 6).
    fn production_inputs(&self) -> Vec<InputSpec>;

    /// Materializes a scenario from an input specification.
    fn build(&self, input: &InputSpec) -> Scenario;
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

//! JGraphT-2: saturation-degree node ordering for heuristic coloring.
//!
//! The ordering algorithm maintains several shared containers — degree
//! counters, saturation counters, per-node adjacent-color sets, bucket
//! lists and running statistics — and updates most of them on every
//! visit. Transactions therefore make *intensive* access to shared
//! memory across their whole execution; sequence-based detection removes
//! almost all false conflicts (§7.2 reports only 16% cache misses), but
//! the speedup stays negligible because privatization and replay costs
//! are not amortized by local work. We reproduce exactly that profile.

use janus_adt::{BitSetAdt, Counter, MapAdt};
use janus_core::{Store, Task, TxView};
use janus_detect::{Relaxation, RelaxationSpec};
use janus_log::ClassId;

use crate::inputs::{Graph, InputSpec};
use crate::util::local_work;
use crate::{Scenario, Workload};

/// Deliberately small: the benchmark is shared-access-bound.
const WORK_PER_NODE: u64 = 2_000;

/// The JGraphT saturation-degree ordering benchmark.
#[derive(Debug, Default)]
pub struct JGraphTOrder;

impl Workload for JGraphTOrder {
    fn name(&self) -> &'static str {
        "jgrapht-2"
    }

    fn source(&self) -> &'static str {
        "JGraphT 0.8.1"
    }

    fn description(&self) -> &'static str {
        "Saturation-degree node-ordering algorithm for heuristic graph coloring"
    }

    fn patterns(&self) -> &'static [&'static str] {
        &["shared-as-local", "equal-writes", "reduction"]
    }

    fn input_description(&self) -> (&'static str, &'static str, &'static str) {
        (
            "Parameters for creation of random simple graph",
            "100 nodes; average degree of 5 / 10",
            "1000 nodes; average degree of 5 / 10",
        )
    }

    fn relaxations(&self) -> RelaxationSpec {
        let mut spec = RelaxationSpec::new().with_ooo_inference();
        // The scratch marker set is cleared before use by every task.
        spec.relax(
            ClassId::new("marker"),
            Relaxation {
                tolerate_raw: true,
                tolerate_waw: true,
            },
        );
        spec
    }

    fn training_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(100, 5, 31), InputSpec::new(100, 10, 32)]
    }

    fn production_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(1000, 5, 33), InputSpec::new(1000, 10, 34)]
    }

    fn build(&self, input: &InputSpec) -> Scenario {
        let mut rng = input.rng();
        let graph = Graph::generate(&mut rng, input.scale, input.degree);
        let nodes = graph.len();
        // A fixed precoloring drives the saturation computation (the
        // ordering pass runs over a partially colored graph).
        let precolor: Vec<i64> = (0..nodes).map(|v| (v % 4) as i64 + 1).collect();

        let mut store = Store::new();
        // Six shared containers, as in the original entry point.
        let saturation = MapAdt::alloc(&mut store, "saturation");
        let degree_sum = Counter::alloc(&mut store, "degreeSum", 0);
        let sat_sum = Counter::alloc(&mut store, "satSum", 0);
        let buckets = MapAdt::alloc(&mut store, "buckets");
        let marker = BitSetAdt::alloc(&mut store, "marker");
        let processed = Counter::alloc(&mut store, "processed", 0);

        let graph = std::sync::Arc::new(graph);
        let precolor = std::sync::Arc::new(precolor);
        let tasks: Vec<Task> = (0..nodes)
            .map(|v| {
                let graph = std::sync::Arc::clone(&graph);
                let precolor = std::sync::Arc::clone(&precolor);
                let saturation = saturation.clone();
                let buckets = buckets.clone();
                let marker = marker.clone();
                Task::new(move |tx: &mut TxView| {
                    // Distinct neighbor colors via the scratch marker set.
                    marker.clear(tx);
                    let mut sat = 0i64;
                    for &nb in &graph.neighbors[v] {
                        let c = precolor[nb];
                        if !marker.get(tx, c) {
                            marker.set(tx, c, true);
                            sat += 1;
                        }
                    }
                    // Per-node saturation record (disjoint keys).
                    saturation.put(tx, v as i64, sat);
                    // Bucket head for this saturation level: every task
                    // with the same saturation writes the same marker
                    // value (equal-writes).
                    buckets.put(tx, sat, 1i64);
                    // Reductions over shared counters.
                    degree_sum.add(tx, graph.neighbors[v].len() as i64);
                    sat_sum.add(tx, sat);
                    processed.add(tx, 1);
                    local_work(WORK_PER_NODE);
                })
            })
            .collect();

        let saturation_check = saturation.clone();
        let expected_nodes = nodes;
        Scenario {
            store,
            tasks,
            check: Box::new(move |store| {
                saturation_check.entries(store).len() == expected_nodes
                    && processed.value(store) == expected_nodes as i64
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_detect::SequenceDetector;
    use janus_relational::Scalar;
    use std::sync::Arc;

    #[test]
    fn sequential_run_counts_all_nodes() {
        let w = JGraphTOrder;
        let scenario = w.build(&InputSpec::new(40, 5, 7));
        let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
        assert!((scenario.check)(&final_store));
    }

    #[test]
    fn parallel_run_with_relaxed_sequence_detection() {
        let w = JGraphTOrder;
        let scenario = w.build(&InputSpec::new(40, 5, 8));
        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
    }

    #[test]
    fn saturation_values_are_degree_bounded() {
        let w = JGraphTOrder;
        let scenario = w.build(&InputSpec::new(30, 6, 9));
        let input = InputSpec::new(30, 6, 9);
        let graph = Graph::generate(&mut input.rng(), 30, 6);
        let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
        // Saturation of v is at most min(deg(v), 4 colors). The
        // saturation map is the workload's first allocation (counter 0),
        // so its id is exactly the class's shard hint.
        let sat_loc = janus_log::LocId(ClassId::new("saturation").shard_hint());
        let entries: Vec<(Scalar, Scalar)> = final_store
            .value(sat_loc)
            .and_then(janus_relational::Value::as_rel)
            .expect("saturation relation")
            .iter()
            .map(|t| (t.get(0).clone(), t.get(1).clone()))
            .collect();
        for (k, s) in entries {
            let (Scalar::Int(v), Scalar::Int(s)) = (k, s) else {
                panic!("integer entries")
            };
            let deg = graph.neighbors[v as usize].len() as i64;
            assert!(s <= deg.min(4) && s >= 0);
        }
    }
}

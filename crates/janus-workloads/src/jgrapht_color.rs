//! JGraphT-1: greedy graph coloring (Figure 3 of the paper).
//!
//! The greedy algorithm visits nodes in a fixed order; for each node it
//! clears a shared scratch `usedColors` bit set, marks the colors of
//! already-colored neighbors, picks the smallest free color, writes it
//! into the shared `color` array, and bumps the shared `maxColor` if the
//! new color exceeds it. `usedColors` is *shared-as-local* (cleared
//! before use), and `maxColor` is a *spurious read* — two parallel
//! iterations conflict on it only if both write different values.
//!
//! The algorithm mandates ordered traversal, so the benchmark runs with
//! in-order commits.

use janus_adt::{BitSetAdt, Cell, MapAdt};
use janus_core::{Store, Task, TxView};
use janus_detect::{Relaxation, RelaxationSpec};
use janus_log::ClassId;
use janus_relational::Scalar;

use crate::inputs::{Graph, InputSpec};
use crate::util::local_work;
use crate::{Scenario, Workload};

/// Work units per node visit (layout bookkeeping etc. in the original).
const WORK_PER_NODE: u64 = 400_000;

/// The JGraphT greedy-coloring benchmark.
#[derive(Debug, Default)]
pub struct JGraphTColor;

impl Workload for JGraphTColor {
    fn name(&self) -> &'static str {
        "jgrapht-1"
    }

    fn source(&self) -> &'static str {
        "JGraphT 0.8.1"
    }

    fn description(&self) -> &'static str {
        "Greedy graph-coloring algorithm"
    }

    fn patterns(&self) -> &'static [&'static str] {
        &["shared-as-local", "spurious-reads"]
    }

    fn input_description(&self) -> (&'static str, &'static str, &'static str) {
        (
            "Parameters for creation of random simple graph",
            "100 nodes; average degree of 5 / 10",
            "1000 nodes; average degree of 5 / 10",
        )
    }

    fn ordered(&self) -> bool {
        true
    }

    fn relaxations(&self) -> RelaxationSpec {
        let mut spec = RelaxationSpec::new();
        // usedColors is a scratch pad: its final value is immaterial, so
        // WAW conflicts on it are declared tolerable (§5.3, the Figure 4
        // treatment). RAW tolerance is implied by the clear-first
        // discipline but declared for robustness.
        spec.relax(
            ClassId::new("usedColors"),
            Relaxation {
                tolerate_raw: true,
                tolerate_waw: true,
            },
        );
        // maxColor reads are spurious (the early-release treatment of
        // Figure 3): suppress read/write conflicts, keep write/write.
        spec.relax(ClassId::new("maxColor"), Relaxation::raw());
        spec
    }

    fn training_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(100, 5, 21), InputSpec::new(100, 10, 22)]
    }

    fn production_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(1000, 5, 23), InputSpec::new(1000, 10, 24)]
    }

    fn build(&self, input: &InputSpec) -> Scenario {
        let mut rng = input.rng();
        let graph = Graph::generate(&mut rng, input.scale, input.degree);
        let nodes = graph.len();

        let mut store = Store::new();
        let color = MapAdt::alloc(&mut store, "color");
        let used = BitSetAdt::alloc(&mut store, "usedColors");
        let max_color = Cell::alloc(&mut store, "maxColor", 1i64);

        let graph = std::sync::Arc::new(graph);
        let tasks: Vec<Task> = (0..nodes)
            .map(|v| {
                let graph = std::sync::Arc::clone(&graph);
                let color = color.clone();
                let used = used.clone();
                Task::new(move |tx: &mut TxView| {
                    used.clear(tx);
                    for &nb in &graph.neighbors[v] {
                        if let Some(Scalar::Int(c)) = color.get(tx, nb as i64) {
                            if c > 0 {
                                used.set(tx, c, true);
                            }
                        }
                    }
                    let mut c = 1i64;
                    while used.get(tx, c) {
                        c += 1;
                    }
                    color.put(tx, v as i64, c);
                    // if (color[v] > maxColor) maxColor = color[v];
                    if max_color.get(tx).as_int().expect("maxColor is an integer") < c {
                        max_color.set(tx, c);
                    }
                    local_work(WORK_PER_NODE);
                })
            })
            .collect();

        let color_check = color.clone();
        let graph_check = graph;
        Scenario {
            store,
            tasks,
            check: Box::new(move |store| {
                // Proper coloring: no edge joins equal colors, everyone
                // colored.
                let entries = color_check.entries(store);
                if entries.len() != graph_check.len() {
                    return false;
                }
                let mut colors = vec![0i64; graph_check.len()];
                for (k, v) in entries {
                    let (Scalar::Int(k), Scalar::Int(c)) = (k, v) else {
                        return false;
                    };
                    colors[k as usize] = c;
                }
                colors.iter().all(|&c| c >= 1)
                    && graph_check
                        .neighbors
                        .iter()
                        .enumerate()
                        .all(|(v, ns)| ns.iter().all(|&u| colors[v] != colors[u]))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::Janus;
    use janus_detect::SequenceDetector;
    use std::sync::Arc;

    #[test]
    fn sequential_coloring_is_proper() {
        let w = JGraphTColor;
        let scenario = w.build(&InputSpec::new(60, 5, 5));
        let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
        assert!((scenario.check)(&final_store));
    }

    #[test]
    fn ordered_parallel_coloring_matches_sequential() {
        let w = JGraphTColor;
        let scenario = w.build(&InputSpec::new(60, 5, 6));
        let seq = w.build(&InputSpec::new(60, 5, 6));
        let (seq_store, _) = Janus::run_sequential(seq.store, &seq.tasks);

        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4)
        .ordered(true);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
        // In-order commits reproduce the sequential greedy coloring
        // exactly (Theorem 4.1).
        for loc in 0..seq_store.len() as u64 {
            let l = janus_log::LocId(loc);
            assert_eq!(seq_store.value(l), outcome.store.value(l));
        }
    }
}

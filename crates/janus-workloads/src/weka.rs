//! Weka: rendering a Bayesian-network graph to a display device
//! (Figure 5 of the paper).
//!
//! `GraphVisualizer` iterates over the nodes of a graph, painting each
//! node's box, label and outgoing edges onto a shared `Graphics2D`
//! surface. Distinct iterations touching the same pixel do not conflict
//! when they set the graphics object to the same color — the
//! *equal-writes* pattern: edges between neighboring nodes overlap at
//! their endpoints but are all drawn in black.

use janus_adt::Canvas;
use janus_core::{Store, Task, TxView};
use janus_detect::RelaxationSpec;

use crate::inputs::{Graph, InputSpec};
use crate::util::local_work;
use crate::{Scenario, Workload};

/// Work units per node (label layout in the original).
const WORK_PER_NODE: u64 = 500_000;

/// Node box size in pixels.
const NODE_W: i64 = 3;
const NODE_H: i64 = 2;

/// Colors.
const BACKGROUND_DARK: i64 = 10;
const WHITE: i64 = 1;
const BLACK: i64 = 0;

/// The Weka graph-visualizer benchmark.
#[derive(Debug, Default)]
pub struct Weka;

impl Weka {
    /// The (deterministic) layout position of node `v`.
    fn position(v: usize, nodes: usize) -> (i64, i64) {
        let cols = (nodes as f64).sqrt().ceil() as i64;
        let v = v as i64;
        ((v % cols) * 8, (v / cols) * 8)
    }
}

impl Workload for Weka {
    fn name(&self) -> &'static str {
        "weka"
    }

    fn source(&self) -> &'static str {
        "Weka 3.6.4"
    }

    fn description(&self) -> &'static str {
        "Machine-learning library for data-mining tasks (graph visualizer)"
    }

    fn patterns(&self) -> &'static [&'static str] {
        &["equal-writes"]
    }

    fn input_description(&self) -> (&'static str, &'static str, &'static str) {
        (
            "Parameters for creation of random Bayesian network",
            "100 nodes; average degree of 5 / 10",
            "1000 nodes; average degree of 5 / 10",
        )
    }

    fn relaxations(&self) -> RelaxationSpec {
        // The brush cell is written before every draw (covered reads), so
        // out-of-order inference tolerates its WAW chains; pixel conflicts
        // are resolved by the equal-writes condition itself.
        RelaxationSpec::new().with_ooo_inference()
    }

    fn training_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(100, 5, 51), InputSpec::new(100, 10, 52)]
    }

    fn production_inputs(&self) -> Vec<InputSpec> {
        vec![InputSpec::new(1000, 5, 53), InputSpec::new(1000, 10, 54)]
    }

    fn build(&self, input: &InputSpec) -> Scenario {
        let mut rng = input.rng();
        // A Bayesian network is a DAG; orient the random graph's edges
        // from lower to higher node id.
        let graph = Graph::generate(&mut rng, input.scale, input.degree);
        let nodes = graph.len();

        let mut store = Store::new();
        let canvas = Canvas::alloc(&mut store, "graphics");

        let graph = std::sync::Arc::new(graph);
        let tasks: Vec<Task> = (0..nodes)
            .map(|v| {
                let graph = std::sync::Arc::clone(&graph);
                let canvas = canvas.clone();
                Task::new(move |tx: &mut TxView| {
                    let (x, y) = Weka::position(v, graph.len());
                    // g.setColor(background.darker().darker());
                    // g.fillOval(...)
                    canvas.set_color(tx, BACKGROUND_DARK);
                    canvas.fill_rect(tx, x, y, NODE_W, NODE_H);
                    // g.setColor(Color.white); g.drawString(lbl, ...);
                    canvas.set_color(tx, WHITE);
                    canvas.plot(tx, x + 1, y + 1);
                    // Label layout: local work.
                    local_work(WORK_PER_NODE);
                    // g.setColor(Color.black); edges to successors.
                    canvas.set_color(tx, BLACK);
                    for &u in &graph.neighbors[v] {
                        if u > v {
                            let (x2, y2) = Weka::position(u, graph.len());
                            canvas.draw_line(tx, x + NODE_W, y + NODE_H, x2, y2);
                        }
                    }
                })
            })
            .collect();

        let canvas_check = canvas.clone();
        Scenario {
            store,
            tasks,
            check: Box::new(move |store| {
                // Every node box was painted: at least nodes * box pixels
                // distinct pixels exist.
                canvas_check.painted(store) >= nodes * (NODE_W * NODE_H) as usize
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
    fn sequential_render() {
        let w = Weka;
        let scenario = w.build(&InputSpec::new(30, 4, 1));
        let (final_store, _) = Janus::run_sequential(scenario.store, &scenario.tasks);
        assert!((scenario.check)(&final_store));
    }

    #[test]
    fn parallel_render_with_sequence_detection() {
        let w = Weka;
        let scenario = w.build(&InputSpec::new(30, 4, 2));
        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(4);
        let outcome = janus.run(scenario.store, scenario.tasks);
        assert!((scenario.check)(&outcome.store));
    }

    #[test]
    fn parallel_render_matches_sequential_pixels() {
        let w = Weka;
        let seq = w.build(&InputSpec::new(25, 4, 3));
        let par = w.build(&InputSpec::new(25, 4, 3));
        let (seq_store, _) = Janus::run_sequential(seq.store, &seq.tasks);
        // Ordered commits make the final image deterministic even where
        // a black edge crosses another node's dark box (the rare
        // unequal-writes overlap the paper notes make the iterations
        // "not invariantly independent").
        let janus = Janus::new(Arc::new(SequenceDetector::with_relaxations(
            w.relaxations(),
        )))
        .threads(3)
        .ordered(true);
        let outcome = janus.run(par.store, par.tasks);
        // Pixel relation is loc 0.
        let loc = janus_log::LocId(0);
        assert_eq!(seq_store.value(loc), outcome.store.value(loc));
    }
}

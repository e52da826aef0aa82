//! The global dependence graph of a training run (§5.1, Equation 1).
//!
//! Nodes are operation instances from the sequential trace; an edge
//! `v1 → v2` labelled by location `l` records that `v1` depends on `v2`
//! (they access a common subvalue of `l`, either for reading or for
//! writing — input dependencies are subsumed). For each location, the
//! unique maximal dependence path is the chronological sequence of
//! operations touching it; partitioning that path at task boundaries
//! yields the dependent subsequences that seed commutativity training.
//! The graph is kept as those paths alone: its edges are the
//! consecutive nodes of each path, and training never walks them.

use std::collections::BTreeMap;

use janus_log::{CellKey, LocId, Op};
use janus_relational::CellSet;

/// A node of the dependence graph: the `idx`-th operation of task `task`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpNode {
    /// Task index within the training run.
    pub task: usize,
    /// Operation index within the task's log.
    pub idx: usize,
}

/// The dependence graph over a training run's sequential trace.
#[derive(Debug, Default)]
pub struct DependenceGraph {
    /// Per-cell maximal dependence paths, in chronological order.
    paths: BTreeMap<(LocId, CellKey), Vec<OpNode>>,
}

impl DependenceGraph {
    /// Builds the graph from per-task logs, in sequential (task-order)
    /// execution order, applying Equation 1 at footprint granularity.
    pub fn build(task_logs: &[Vec<Op>]) -> Self {
        let mut graph = DependenceGraph::default();
        // Chronological trace of (node, op).
        let trace: Vec<(OpNode, &Op)> = task_logs
            .iter()
            .enumerate()
            .flat_map(|(task, log)| {
                log.iter()
                    .enumerate()
                    .map(move |(idx, op)| (OpNode { task, idx }, op))
            })
            .collect();

        // Per-cell chronological paths.
        for (node, op) in &trace {
            let accessed = op.footprint.accessed();
            match &accessed {
                CellSet::All => {
                    graph
                        .paths
                        .entry((op.loc, CellKey::Whole))
                        .or_default()
                        .push(*node);
                }
                CellSet::One(_) | CellSet::Keys(_) => {
                    for k in accessed.iter() {
                        graph
                            .paths
                            .entry((op.loc, CellKey::Key(k.clone())))
                            .or_default()
                            .push(*node);
                    }
                }
                CellSet::Empty => {}
            }
        }
        graph
    }

    /// The maximal dependence path for each accessed cell, chronological.
    pub fn paths(&self) -> &BTreeMap<(LocId, CellKey), Vec<OpNode>> {
        &self.paths
    }

    /// Partitions a cell's dependence path at task boundaries, yielding
    /// the per-task dependent subsequences (§5.1 "the path is then
    /// partitioned according to task boundaries").
    pub fn partitioned(&self, loc: LocId, cell: &CellKey) -> Vec<(usize, Vec<OpNode>)> {
        let Some(path) = self.paths.get(&(loc, cell.clone())) else {
            return Vec::new();
        };
        let mut out: Vec<(usize, Vec<OpNode>)> = Vec::new();
        for node in path {
            match out.last_mut() {
                Some((task, nodes)) if *task == node.task => nodes.push(*node),
                _ => out.push((node.task, vec![*node])),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_log::{ClassId, OpKind, ScalarOp};
    use janus_relational::Value;

    fn task_log(loc: u64, kinds: Vec<OpKind>, v: &mut Value) -> Vec<Op> {
        kinds
            .into_iter()
            .map(|k| Op::execute(LocId(loc), ClassId::new("x"), k, v).0)
            .collect()
    }

    #[test]
    fn paths_follow_trace_order() {
        let mut v = Value::int(0);
        let logs = vec![
            task_log(0, vec![OpKind::Scalar(ScalarOp::Add(1))], &mut v),
            task_log(0, vec![OpKind::Scalar(ScalarOp::Add(2))], &mut v),
        ];
        let g = DependenceGraph::build(&logs);
        let path = &g.paths()[&(LocId(0), CellKey::Whole)];
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], OpNode { task: 0, idx: 0 });
        assert_eq!(path[1], OpNode { task: 1, idx: 0 });
    }

    #[test]
    fn partition_at_task_boundaries() {
        let mut v = Value::int(0);
        let logs = vec![
            task_log(
                0,
                vec![
                    OpKind::Scalar(ScalarOp::Add(1)),
                    OpKind::Scalar(ScalarOp::Add(-1)),
                ],
                &mut v,
            ),
            task_log(0, vec![OpKind::Scalar(ScalarOp::Read)], &mut v),
        ];
        let g = DependenceGraph::build(&logs);
        let parts = g.partitioned(LocId(0), &CellKey::Whole);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].0, 1);
        assert_eq!(parts[1].1.len(), 1);
    }

    #[test]
    fn disjoint_locations_have_disjoint_paths() {
        let mut a = Value::int(0);
        let mut b = Value::int(0);
        let logs = vec![
            task_log(0, vec![OpKind::Scalar(ScalarOp::Add(1))], &mut a),
            task_log(1, vec![OpKind::Scalar(ScalarOp::Add(1))], &mut b),
        ];
        let g = DependenceGraph::build(&logs);
        assert_eq!(g.paths().len(), 2, "no cross-location dependencies");
    }

    #[test]
    fn missing_cell_partitions_empty() {
        let g = DependenceGraph::build(&[]);
        assert!(g.partitioned(LocId(9), &CellKey::Whole).is_empty());
    }
}

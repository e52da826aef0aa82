//! Sequence mining and the training driver (§5.1, Figure 6).

use std::collections::BTreeSet;

use janus_detect::{conflict_cell, MapState, Relaxation};
use janus_log::{CellKey, ClassId, Op, OpKind, ScalarOp};
use janus_relational::{RelOp, Value};

use crate::abstraction::{abstract_sequence, Pattern};
use crate::cache::{CellShape, CommutativityCache, TrainReport};
use crate::condition::{evaluate_condition, Condition};
use crate::depgraph::DependenceGraph;
use crate::symbolic;

/// One sequential, synchronization-free training run: the initial shared
/// state and the operation log of each task, in execution order.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    /// The shared state at the start of the run.
    pub initial: MapState,
    /// Per-task operation logs, in sequential execution order.
    pub task_logs: Vec<Vec<Op>>,
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Apply the Kleene-cross sequence abstraction of §5.2. Disabling it
    /// reproduces the "without sequence abstraction" ablation of
    /// Figure 11.
    pub use_abstraction: bool,
    /// Run the SAT-backed symbolic verification pass over mined
    /// relational pairs (§6.2). Purely diagnostic: failures demote
    /// nothing, successes are counted in the [`TrainReport`].
    pub verify_symbolic: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            use_abstraction: true,
            verify_symbolic: true,
        }
    }
}

/// A candidate pair of dependent subsequences mined from a training run:
/// two different tasks' operations on the same cell.
#[derive(Debug, Clone)]
pub struct CandidatePair {
    /// The location's class.
    pub class: ClassId,
    /// The cell both subsequences range over.
    pub cell: CellKey,
    /// The first (earlier) task's subsequence.
    pub a: Vec<Op>,
    /// The second (later) task's subsequence.
    pub b: Vec<Op>,
    /// The location's value when the earlier task began (used to verify
    /// conditions against the concrete training observation).
    pub entry: Value,
}

/// Mines candidate pairs from a training run: builds the dependence graph
/// (Equation 1), takes each cell's maximal dependence path, partitions it
/// at task boundaries, and pairs up the per-task subsequences of distinct
/// tasks.
pub fn mine_pairs(run: &TrainingRun) -> Vec<CandidatePair> {
    let graph = DependenceGraph::build(&run.task_logs);
    let mut pairs = Vec::new();
    for (loc, cell) in graph.paths().keys() {
        let parts = graph.partitioned(*loc, cell);
        if parts.len() < 2 {
            continue;
        }
        // Entry value for verification: the location's value at the start
        // of the run (conditions are state-predicates; any concrete state
        // works as a verification probe, and production re-evaluates on
        // its own entry states).
        let Some(entry) = run.initial.0.get(loc).cloned() else {
            continue;
        };
        let class = run.task_logs[parts[0].0][parts[0].1[0].idx].class.clone();
        // Pair consecutive per-task subsequences (the pairs that actually
        // arise as (transaction, conflict-history) splits), plus the
        // first/last pair for long chains.
        let seq_of = |part: &(usize, Vec<crate::depgraph::OpNode>)| -> Vec<Op> {
            part.1
                .iter()
                .map(|n| run.task_logs[n.task][n.idx].clone())
                .collect()
        };
        for w in parts.windows(2) {
            pairs.push(CandidatePair {
                class: class.clone(),
                cell: cell.clone(),
                a: seq_of(&w[0]),
                b: seq_of(&w[1]),
                entry: entry.clone(),
            });
        }
        if parts.len() > 2 {
            pairs.push(CandidatePair {
                class: class.clone(),
                cell: cell.clone(),
                a: seq_of(&parts[0]),
                b: seq_of(&parts[parts.len() - 1]),
                entry: entry.clone(),
            });
        }
    }
    pairs
}

/// Whether every operation of both sides is a blind fetch-add (possibly
/// none): such pairs commute for every input state and every binding.
fn pure_adds(a: &[&Op], b: &[&Op]) -> bool {
    a.iter()
        .chain(b)
        .all(|op| matches!(op.kind, OpKind::Scalar(ScalarOp::Add(_))))
}

/// One observed pair of same-cell subsequences — `a`, then `b`, from
/// `entry` — with both sides abstracted (§5.2). [`train`] and
/// [`crate::OnlineLearningCache`] both learn through it, so a pair is
/// cached by one rule wherever it was seen.
pub(crate) struct Observation<'a> {
    entry: &'a Value,
    cell: &'a CellKey,
    a: &'a [&'a Op],
    b: &'a [&'a Op],
    pub(crate) pat_a: Pattern,
    pub(crate) pat_b: Pattern,
}

impl<'a> Observation<'a> {
    pub(crate) fn new(
        entry: &'a Value,
        cell: &'a CellKey,
        a: &'a [&'a Op],
        b: &'a [&'a Op],
        use_abstraction: bool,
    ) -> Self {
        Observation {
            entry,
            cell,
            a,
            b,
            pat_a: abstract_sequence(cell, a, use_abstraction),
            pat_b: abstract_sequence(cell, b, use_abstraction),
        }
    }

    /// The condition to cache the pair under: `CommutesAlways` for pure
    /// fetch-adds, otherwise `InputDependent`. `None` when the summary
    /// evaluation disagrees with the precise Figure 8 check on this
    /// observation — that would indicate a summary-algebra bug, so the
    /// pair stays out of the cache (production then falls back — sound).
    pub(crate) fn condition(&self) -> Option<Condition> {
        let strict = Relaxation::strict();
        let precise = conflict_cell(self.entry, self.cell, self.a, self.b, strict);
        let summary = evaluate_condition(
            Condition::InputDependent,
            Some(self.entry),
            self.cell,
            self.a,
            self.b,
            strict,
        );
        (summary == Some(precise)).then(|| {
            if pure_adds(self.a, self.b) {
                Condition::CommutesAlways
            } else {
                Condition::InputDependent
            }
        })
    }
}

/// The relational mutation sequence of a side, if it consists solely of
/// relational ops (for the symbolic verification pass).
fn rel_ops(ops: &[Op]) -> Option<Vec<RelOp>> {
    ops.iter()
        .map(|op| match &op.kind {
            OpKind::Rel(r) => Some(r.clone()),
            OpKind::Scalar(_) => None,
        })
        .collect()
}

/// Runs the training phase over one or more sequential runs, producing
/// the commutativity cache whose frozen form ([`crate::FrozenCache`])
/// [`janus_detect::CachedSequenceDetector`] queries.
pub fn train(runs: &[TrainingRun], config: TrainConfig) -> (CommutativityCache, TrainReport) {
    let mut cache = CommutativityCache::new(config.use_abstraction);
    let mut report = TrainReport::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();

    for run in runs {
        let pairs = mine_pairs(run);
        report.pairs_mined += pairs.len() as u64;
        for pair in pairs {
            let ra: Vec<&Op> = pair.a.iter().collect();
            let rb: Vec<&Op> = pair.b.iter().collect();
            let observed =
                Observation::new(&pair.entry, &pair.cell, &ra, &rb, config.use_abstraction);
            let (pat_a, pat_b) = (&observed.pat_a, &observed.pat_b);
            let shape = CellShape::of(&pair.cell);

            // Deduplicate by abstract signature.
            let sig = format!("{}#{:?}#{pat_a}#{pat_b}", pair.class, shape);
            let sig_rev = format!("{}#{:?}#{pat_b}#{pat_a}", pair.class, shape);
            if seen.contains(&sig) || seen.contains(&sig_rev) {
                continue;
            }
            seen.insert(sig);

            let Some(condition) = observed.condition() else {
                report.pairs_rejected += 1;
                continue;
            };

            // Symbolic verification pass for relational pairs (§6.2).
            if config.verify_symbolic {
                if let (Some(ops_a), Some(ops_b)) = (rel_ops(&pair.a), rel_ops(&pair.b)) {
                    report.symbolic_attempted += 1;
                    if symbolic::prove_commutes_all_states(
                        schema_of(&pair.entry),
                        &ops_a,
                        &ops_b,
                        true,
                    ) {
                        report.symbolic_proved += 1;
                    }
                }
            }

            cache.insert(
                pair.class.clone(),
                shape,
                observed.pat_a,
                observed.pat_b,
                condition,
            );
            report.entries_added += 1;
        }
    }
    (cache, report)
}

fn schema_of(entry: &Value) -> &janus_relational::Schema {
    match entry {
        Value::Rel(r) => r.schema(),
        Value::Scalar(_) => {
            // rel_ops() only returns Some for relational sequences, whose
            // entry values are relations; this branch is unreachable in
            // practice but kept total.
            static EMPTY: std::sync::OnceLock<std::sync::Arc<janus_relational::Schema>> =
                std::sync::OnceLock::new();
            EMPTY.get_or_init(|| janus_relational::Schema::new(&["v"]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_detect::SequenceOracle;
    use janus_log::{LocId, ScalarOp};
    use janus_relational::Scalar;

    fn add(d: i64) -> OpKind {
        OpKind::Scalar(ScalarOp::Add(d))
    }

    fn write(v: i64) -> OpKind {
        OpKind::Scalar(ScalarOp::Write(Scalar::Int(v)))
    }

    /// A run of three tasks, each doing a balanced add/subtract on the
    /// shared `work` counter (Figure 1).
    fn identity_run() -> TrainingRun {
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(0));
        let mut v = Value::int(0);
        let class = ClassId::new("work");
        let mut task = |kinds: Vec<OpKind>| -> Vec<Op> {
            kinds
                .into_iter()
                .map(|k| Op::execute(LocId(0), class.clone(), k, &mut v).0)
                .collect()
        };
        TrainingRun {
            initial: state,
            task_logs: vec![
                task(vec![add(2), add(-2)]),
                task(vec![add(3), add(-3)]),
                task(vec![add(1), add(-1), add(4), add(-4)]),
            ],
        }
    }

    #[test]
    fn mining_finds_cross_task_pairs() {
        let run = identity_run();
        let pairs = mine_pairs(&run);
        // Tasks (0,1), (1,2) and (0,2).
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|p| p.class == ClassId::new("work")));
        assert!(pairs.iter().all(|p| p.cell == CellKey::Whole));
    }

    #[test]
    fn training_learns_identity_pattern() {
        let run = identity_run();
        let (cache, report) = train(&[run], TrainConfig::default());
        let cache = cache.freeze();
        assert!(report.entries_added >= 1);
        assert_eq!(report.pairs_rejected, 0);

        // A production query with fresh deltas and lengths hits the cache
        // and reports no conflict.
        let class = ClassId::new("work");
        let entry = Value::int(7);
        let mut v = entry.clone();
        let a: Vec<Op> = [add(9), add(-9)]
            .into_iter()
            .map(|k| Op::execute(LocId(5), class.clone(), k, &mut v).0)
            .collect();
        let b: Vec<Op> = [add(6), add(-6), add(2), add(-2), add(1), add(-1)]
            .into_iter()
            .map(|k| Op::execute(LocId(5), class.clone(), k, &mut v).0)
            .collect();
        let ra: Vec<&Op> = a.iter().collect();
        let rb: Vec<&Op> = b.iter().collect();
        let answer = cache.query(
            &class,
            Some(&entry),
            &CellKey::Whole,
            &ra,
            &rb,
            Relaxation::strict(),
        );
        assert_eq!(answer, Some(false), "identity pattern generalizes");
    }

    #[test]
    fn training_without_abstraction_misses_longer_sequences() {
        let run = identity_run();
        let (cache, _) = train(
            &[run],
            TrainConfig {
                use_abstraction: false,
                verify_symbolic: false,
            },
        );
        let cache = cache.freeze();
        let class = ClassId::new("work");
        let entry = Value::int(0);
        let mut v = entry.clone();
        // Length-10 production sequence: no exact-length pattern matches
        // (training saw lengths 2 and 4).
        let a: Vec<Op> = (0..5)
            .flat_map(|i| [add(i + 1), add(-(i + 1))])
            .map(|k| Op::execute(LocId(5), class.clone(), k, &mut v).0)
            .collect();
        let b: Vec<Op> = [add(1), add(-1)]
            .into_iter()
            .map(|k| Op::execute(LocId(5), class.clone(), k, &mut v).0)
            .collect();
        let ra: Vec<&Op> = a.iter().collect();
        let rb: Vec<&Op> = b.iter().collect();
        assert_eq!(
            cache.query(
                &class,
                Some(&entry),
                &CellKey::Whole,
                &ra,
                &rb,
                Relaxation::strict()
            ),
            None,
            "exact patterns cannot match unseen lengths"
        );
    }

    #[test]
    fn equal_writes_condition_is_input_dependent() {
        // Two tasks writing the same value to a shared cell.
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(0));
        let class = ClassId::new("pixel");
        let mut v = Value::int(0);
        let mut task = |kinds: Vec<OpKind>| -> Vec<Op> {
            kinds
                .into_iter()
                .map(|k| Op::execute(LocId(0), class.clone(), k, &mut v).0)
                .collect()
        };
        let run = TrainingRun {
            initial: state,
            task_logs: vec![task(vec![write(3)]), task(vec![write(3)])],
        };
        let cache = train(&[run], TrainConfig::default()).0.freeze();

        let entry = Value::int(0);
        let mk = |val: i64| -> Vec<Op> {
            let mut v = entry.clone();
            vec![Op::execute(LocId(9), class.clone(), write(val), &mut v).0]
        };
        let (a, b_eq, b_ne) = (mk(5), mk(5), mk(6));
        let q = |x: &Vec<Op>, y: &Vec<Op>| {
            let rx: Vec<&Op> = x.iter().collect();
            let ry: Vec<&Op> = y.iter().collect();
            cache.query(
                &class,
                Some(&entry),
                &CellKey::Whole,
                &rx,
                &ry,
                Relaxation::strict(),
            )
        };
        assert_eq!(q(&a, &b_eq), Some(false), "equal writes commute");
        assert_eq!(q(&a, &b_ne), Some(true), "unequal writes conflict");
    }

    #[test]
    fn report_counts_symbolic_proofs() {
        use janus_relational::{tuple, Fd, Relation, Schema};
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut state = MapState::default();
        state
            .0
            .insert(LocId(0), Value::Rel(Relation::empty(schema)));
        let class = ClassId::new("map");
        let mut v = state.0[&LocId(0)].clone();
        let mut task = |kinds: Vec<OpKind>| -> Vec<Op> {
            kinds
                .into_iter()
                .map(|k| Op::execute(LocId(0), class.clone(), k, &mut v).0)
                .collect()
        };
        let run = TrainingRun {
            initial: state,
            task_logs: vec![
                task(vec![
                    OpKind::Rel(RelOp::insert(tuple![1, 10])),
                    OpKind::Rel(RelOp::remove(tuple![1, 10])),
                ]),
                task(vec![
                    OpKind::Rel(RelOp::insert(tuple![1, 20])),
                    OpKind::Rel(RelOp::remove(tuple![1, 20])),
                ]),
            ],
        };
        let (_, report) = train(&[run], TrainConfig::default());
        assert!(report.symbolic_attempted >= 1);
        assert_eq!(report.symbolic_attempted, report.symbolic_proved);
    }
}

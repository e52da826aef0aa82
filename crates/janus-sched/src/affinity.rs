//! Conflict-affinity routing: likely-conflicting tasks share a worker.
//!
//! Two transactions only abort against each other when they overlap in
//! time *and* in footprint. The detector attacks the footprint axis;
//! affinity routing attacks the time axis: if every task predicted to
//! touch a hot location runs on the same worker, those tasks serialize
//! naturally — without aborting — while disjoint tasks fill the other
//! workers. Predictions come from the same place as the commutativity
//! conditions: the read/write sets mined from a sequential (training or
//! hindsight) run.
//!
//! Lanes are *sealed*: placement fixes each worker's lane at bind time,
//! a worker pops only its own lane, front to back, and stops as soon as
//! it is empty. Nothing moves between lanes, so a hot chain runs on one
//! core while the others finish their own lanes and leave. Ordered runs
//! stay live because every lane ascends in task index: the smallest
//! uncommitted task is always at the front of its lane, and that lane's
//! worker has committed everything before it, so it is either running
//! the task or about to pop it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use janus_train::TrainingRun;

use crate::backoff::{deterministic_steps, BackoffHint};
use crate::policy::{Dispatch, SchedulePolicy, TaskSource};
use crate::stats::SchedStats;

/// Predicts the shared-state footprint of a task before it runs.
pub trait FootprintPredictor: Send + Sync + std::fmt::Debug {
    /// Footprint keys (location or class identities — any stable `u64`
    /// encoding) task `task` is expected to touch. Tasks with
    /// overlapping keys are routed to the same worker. An empty
    /// prediction means "route by load balance alone".
    fn footprint(&self, task: usize) -> Vec<u64>;
}

/// A literal per-task footprint table.
#[derive(Debug, Clone, Default)]
pub struct ExactFootprints(pub Vec<Vec<u64>>);

impl FootprintPredictor for ExactFootprints {
    fn footprint(&self, task: usize) -> Vec<u64> {
        self.0.get(task).cloned().unwrap_or_default()
    }
}

/// Footprints mined from a sequential run's per-task operation logs —
/// the read/write sets the trainer already extracts (§5.1). When the
/// production tasks are the ones profiled (hindsight scheduling) the
/// prediction is exact; when they merely share location classes with
/// the profiled run, it is a heuristic.
#[derive(Debug, Clone, Default)]
pub struct TrainedFootprints {
    keys: Vec<Vec<u64>>,
}

impl TrainedFootprints {
    /// Mines each task's distinct touched locations from the run.
    pub fn from_training_run(run: &TrainingRun) -> Self {
        let keys = run
            .task_logs
            .iter()
            .map(|log| {
                let mut locs: Vec<u64> = log.iter().map(|op| op.loc.0).collect();
                locs.sort_unstable();
                locs.dedup();
                locs
            })
            .collect();
        TrainedFootprints { keys }
    }
}

impl FootprintPredictor for TrainedFootprints {
    fn footprint(&self, task: usize) -> Vec<u64> {
        self.keys.get(task).cloned().unwrap_or_default()
    }
}

/// Routes tasks to workers by predicted footprint overlap onto sealed
/// lanes. Aborts (which still happen when predictions miss) back off on
/// a deterministic curve seeded by `seed`.
#[derive(Debug, Clone)]
pub struct Affinity {
    /// The footprint oracle driving placement.
    pub predictor: Arc<dyn FootprintPredictor>,
    /// Seed of the retry-backoff schedule.
    pub seed: u64,
}

impl Affinity {
    /// An affinity policy over the given predictor, with the default
    /// backoff seed.
    pub fn new(predictor: Arc<dyn FootprintPredictor>) -> Self {
        Affinity {
            predictor,
            seed: 0x006a_616e_7573,
        }
    }
}

impl SchedulePolicy for Affinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn bind(&self, tasks: usize, workers: usize) -> Box<dyn TaskSource> {
        let workers = workers.max(1);
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let mut keys: Vec<Vec<u64>> = vec![Vec::new(); workers];
        let mut routed = 0u64;
        for task in 0..tasks {
            let fp = self.predictor.footprint(task);
            // Greedy placement: the worker sharing the most footprint
            // keys wins; ties (and empty predictions) go to the least
            // loaded worker. Deterministic given the predictor.
            let overlap = |w: usize| fp.iter().filter(|k| keys[w].contains(k)).count();
            let best = (0..workers)
                .max_by_key(|&w| (overlap(w), std::cmp::Reverse(queues[w].len())))
                .expect("at least one worker");
            if overlap(best) > 0 {
                routed += 1;
            }
            for k in &fp {
                if !keys[best].contains(k) {
                    keys[best].push(*k);
                }
            }
            queues[best].push(task);
        }
        Box::new(SealedLanes::new(queues, self.seed, routed))
    }
}

/// One worker's share of the batch: its routed tasks, ascending, and the
/// index of the next one to dispatch.
struct Lane {
    tasks: Box<[u32]>,
    next: AtomicUsize,
}

/// The bound affinity source: one sealed lane per worker.
struct SealedLanes {
    lanes: Vec<Lane>,
    seed: u64,
    routed: u64,
    waits: AtomicU64,
    steps: AtomicU64,
}

impl SealedLanes {
    fn new(queues: Vec<Vec<usize>>, seed: u64, routed: u64) -> Self {
        let lanes = queues
            .into_iter()
            .map(|q| Lane {
                tasks: q
                    .into_iter()
                    .map(|t| u32::try_from(t).expect("affinity lanes hold under 2^32 tasks"))
                    .collect(),
                next: AtomicUsize::new(0),
            })
            .collect();
        SealedLanes {
            lanes,
            seed,
            routed,
            waits: AtomicU64::new(0),
            steps: AtomicU64::new(0),
        }
    }
}

impl TaskSource for SealedLanes {
    fn next_task(&self, worker: usize) -> Option<Dispatch> {
        let lane = &self.lanes[worker % self.lanes.len()];
        // Relaxed: the lane's tasks are immutable after bind, so the
        // cursor only has to hand each index out once.
        let i = lane.next.fetch_add(1, Ordering::Relaxed);
        lane.tasks.get(i).map(|&t| Dispatch::own(t as usize))
    }

    fn on_abort(&self, _worker: usize, task: usize, attempt: u32) -> BackoffHint {
        let steps = deterministic_steps(self.seed, task as u64, attempt, 16, 4096);
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.steps.fetch_add(steps, Ordering::Relaxed);
        BackoffHint { steps }
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            dispatched: self
                .lanes
                .iter()
                .map(|l| l.next.load(Ordering::Relaxed).min(l.tasks.len()) as u64)
                .sum(),
            backoff_waits: self.waits.load(Ordering::Relaxed),
            backoff_steps: self.steps.load(Ordering::Relaxed),
            affinity_routed: self.routed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(table: &[&[u64]]) -> Arc<dyn FootprintPredictor> {
        Arc::new(ExactFootprints(
            table.iter().map(|fp| fp.to_vec()).collect(),
        ))
    }

    #[test]
    fn overlapping_tasks_share_a_worker() {
        // Tasks 0, 2, 4 overlap (locations 7/9); tasks 1, 3 are
        // disjoint. The chain must land on one worker's lane, the
        // disjoint tasks on the other's.
        let policy = Affinity::new(exact(&[&[7], &[1], &[7, 9], &[2], &[9]]));
        let source = policy.bind(5, 2);
        assert_eq!(
            source.stats().affinity_routed,
            2,
            "tasks 2 and 4 joined task 0"
        );
        let drain = |w: usize| -> Vec<usize> {
            std::iter::from_fn(|| source.next_task(w).map(|d| d.task)).collect()
        };
        let (a, b) = (drain(0), drain(1));
        let (hot, cold) = if a.contains(&0) { (a, b) } else { (b, a) };
        assert_eq!(hot, vec![0, 2, 4], "the overlap chain serializes");
        assert_eq!(cold, vec![1, 3]);
        assert_eq!(source.stats().dispatched, 5);
    }

    #[test]
    fn every_task_is_dispensed_exactly_once() {
        let policy = Affinity::new(exact(&[&[1], &[1], &[2], &[], &[2], &[1, 2]]));
        let source = policy.bind(6, 3);
        let mut seen = Vec::new();
        for w in 0..3 {
            while let Some(d) = source.next_task(w) {
                seen.push(d.task);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(source.stats().dispatched, 6);
    }

    #[test]
    fn empty_predictions_balance_by_load() {
        let policy = Affinity::new(exact(&[&[], &[], &[], &[]]));
        let source = policy.bind(4, 2);
        // With no footprint signal, placement alternates by load: each
        // worker's own lane serves exactly two tasks.
        for w in [0, 1] {
            assert!(source.next_task(w).is_some());
            assert!(source.next_task(w).is_some());
            assert_eq!(source.next_task(w), None);
        }
        assert_eq!(source.stats().affinity_routed, 0);
    }

    #[test]
    fn a_drained_lane_is_done_while_another_still_holds_work() {
        let source = SealedLanes::new(vec![vec![0, 1, 2], vec![]], 7, 0);
        assert_eq!(source.next_task(1), None, "lane 1 is sealed and empty");
        let lane0: Vec<usize> = (0..3).map(|_| source.next_task(0).unwrap().task).collect();
        assert_eq!(lane0, vec![0, 1, 2]);
        assert_eq!(source.next_task(0), None);
        assert_eq!(source.stats().dispatched, 3);
    }

    #[test]
    fn aborts_back_off_on_the_seeded_curve() {
        let source = Affinity::new(exact(&[&[], &[]])).bind(2, 2);
        let hint = source.on_abort(0, 1, 0);
        assert_eq!(
            hint.steps,
            deterministic_steps(0x006a_616e_7573, 1, 0, 16, 4096)
        );
        let stats = source.stats();
        assert_eq!((stats.backoff_waits, stats.backoff_steps), (1, hint.steps));
    }

    #[test]
    fn trained_footprints_mine_distinct_locations() {
        use janus_log::{ClassId, LocId, Op, OpKind, ScalarOp};
        use janus_relational::Value;

        let mut v = Value::int(0);
        let op = |loc: u64, v: &mut Value| {
            Op::execute(
                LocId(loc),
                ClassId::new("work"),
                OpKind::Scalar(ScalarOp::Add(1)),
                v,
            )
            .0
        };
        let run = TrainingRun {
            initial: Default::default(),
            task_logs: vec![vec![op(3, &mut v), op(3, &mut v), op(1, &mut v)], vec![]],
        };
        let predictor = TrainedFootprints::from_training_run(&run);
        assert_eq!(predictor.footprint(0), vec![1, 3]);
        assert_eq!(predictor.footprint(1), Vec::<u64>::new());
        assert_eq!(predictor.footprint(9), Vec::<u64>::new(), "out of range");
    }
}

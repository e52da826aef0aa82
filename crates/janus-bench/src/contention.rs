//! The contention sweep: scheduling policies under a hotspot workload.
//!
//! A synthetic workload dials contention directly: `hot_pct` percent of
//! the tasks read-modify-write one shared hot counter (a non-commuting
//! access pattern under write-set detection, so every overlapping pair
//! aborts), while the rest increment private locations. The sweep runs
//! every scheduling policy (`fifo`, `backoff`, `affinity`, `steal`), with and
//! without serial-fallback degradation, against a sequential baseline —
//! measuring how much of the seed scheduler's hot-restart retry storm
//! each policy removes, and what the degraded worst case costs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use janus_core::{Janus, Store, Task, TxView};
use janus_detect::WriteSetDetector;
use janus_sched::{
    Affinity, Backoff, DegradeConfig, ExactFootprints, Fifo, SchedulePolicy, WorkSteal,
};

/// One measured point of the contention sweep.
#[derive(Debug, Clone)]
pub struct ContentionPoint {
    /// Percentage of tasks hitting the shared hot counter.
    pub hot_pct: u32,
    /// Scheduling policy label ("fifo", "backoff", "affinity", "steal").
    pub policy: &'static str,
    /// Whether serial-fallback degradation was enabled.
    pub degrade: bool,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub retries: u64,
    /// Parallel wall-clock time.
    pub wall: Duration,
    /// Sequential baseline wall-clock time for the same task list.
    pub seq_wall: Duration,
    /// Windows in which the feedback loop degraded.
    pub degrade_windows: u64,
    /// Backoff waits performed.
    pub backoff_waits: u64,
    /// Serialized (token-holding) retries.
    pub serial_retries: u64,
    /// Whether the final state matched the expected sums.
    pub check_ok: bool,
}

impl ContentionPoint {
    /// Retries per transaction.
    pub fn retry_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.retries as f64 / self.commits as f64
        }
    }

    /// Parallel wall over sequential wall (< 1 is a speedup).
    pub fn wall_vs_sequential(&self) -> f64 {
        self.wall.as_secs_f64() / self.seq_wall.as_secs_f64().max(1e-12)
    }
}

/// The hotspot scenario: a store, its task list, per-task footprints for
/// affinity routing, and the expected final value of the hot counter.
struct Hotspot {
    store: Store,
    tasks: Vec<Task>,
    footprints: Vec<Vec<u64>>,
    hot: janus_log::LocId,
    expected_hot: i64,
}

/// Builds `n` tasks of which `hot_pct`% read-modify-write one shared
/// counter; the remainder increment private locations. Each hot task
/// also burns a little deterministic compute so attempts genuinely
/// overlap in time.
fn hotspot(n: usize, hot_pct: u32) -> Hotspot {
    let mut store = Store::new();
    let hot = store.alloc("hot", janus_relational::Value::int(0));
    let hot_count = n * hot_pct as usize / 100;
    let mut tasks = Vec::with_capacity(n);
    let mut footprints = Vec::with_capacity(n);
    let mut expected_hot = 0i64;
    for i in 0..n {
        if i < hot_count {
            let delta = (i + 1) as i64;
            expected_hot += delta;
            tasks.push(Task::new(move |tx: &mut TxView| {
                let v = tx.read_int(hot);
                // A deterministic spin between the read and the write
                // widens the conflict window so attempts genuinely
                // overlap in time (dispatch overhead alone would
                // otherwise serialize these sub-microsecond bodies).
                let mut acc = v;
                for k in 0..20_000i64 {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                std::hint::black_box(acc);
                tx.write(hot, v + delta);
            }));
            footprints.push(vec![hot.0]);
        } else {
            let loc = store.alloc(
                format!("cold-{i}").as_str(),
                janus_relational::Value::int(0),
            );
            tasks.push(Task::new(move |tx: &mut TxView| tx.add(loc, 1)));
            footprints.push(vec![loc.0]);
        }
    }
    Hotspot {
        store,
        tasks,
        footprints,
        hot,
        expected_hot,
    }
}

/// The hot-percentage axis of the sweep.
pub const HOT_PCT_GRID: [u32; 4] = [25, 50, 75, 100];

/// The policy axis of the sweep, labelled; affinity routes on the
/// scenario's exact footprints.
fn sweep_policies(footprints: Vec<Vec<u64>>) -> Vec<(&'static str, Arc<dyn SchedulePolicy>)> {
    vec![
        ("fifo", Arc::new(Fifo)),
        ("backoff", Arc::new(Backoff::default())),
        (
            "affinity",
            Arc::new(Affinity::new(Arc::new(ExactFootprints(footprints)))),
        ),
        ("steal", Arc::new(WorkSteal::new(7))),
    ]
}

/// Runs the contention sweep: every policy × degradation setting across
/// [`HOT_PCT_GRID`], against a per-configuration sequential baseline.
pub fn contention_sweep(quick: bool) -> Vec<ContentionPoint> {
    let n = if quick { 64 } else { 160 };
    let threads = if quick { 4 } else { 8 };
    let mut out = Vec::new();
    for hot_pct in HOT_PCT_GRID {
        let scenario = hotspot(n, hot_pct);
        let seq_started = Instant::now();
        let (seq_store, _) = Janus::run_sequential(scenario.store.clone(), &scenario.tasks);
        let seq_wall = seq_started.elapsed();
        assert_eq!(
            seq_store.value(scenario.hot),
            Some(&janus_relational::Value::int(scenario.expected_hot)),
            "sequential baseline must produce the expected sum"
        );
        for (label, policy) in sweep_policies(scenario.footprints.clone()) {
            for degrade in [false, true] {
                let scenario = hotspot(n, hot_pct);
                let mut janus = Janus::new(Arc::new(WriteSetDetector::new()))
                    .threads(threads)
                    .schedule(Arc::clone(&policy));
                if degrade {
                    janus = janus.degrade(DegradeConfig {
                        window: 16,
                        threshold: 0.5,
                    });
                }
                let outcome = janus.run(scenario.store, scenario.tasks);
                let check_ok = outcome.store.value(scenario.hot)
                    == Some(&janus_relational::Value::int(scenario.expected_hot));
                out.push(ContentionPoint {
                    hot_pct,
                    policy: label,
                    degrade,
                    commits: outcome.stats.commits,
                    retries: outcome.stats.retries,
                    wall: outcome.stats.wall,
                    seq_wall,
                    degrade_windows: outcome.sched.degrade_windows,
                    backoff_waits: outcome.sched.backoff_waits,
                    serial_retries: outcome.sched.serial_retries,
                    check_ok,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_commits_everything_and_checks_out() {
        let points = contention_sweep(true);
        // Hot percentages × policies × 2 degradation settings.
        let policies = sweep_policies(Vec::new()).len();
        assert_eq!(points.len(), HOT_PCT_GRID.len() * policies * 2);
        for p in &points {
            assert_eq!(
                p.commits, 64,
                "{}/{}: all tasks commit",
                p.policy, p.hot_pct
            );
            assert!(
                p.check_ok,
                "{}/{}: final state correct",
                p.policy, p.hot_pct
            );
            // How many conflicts materialize depends on the host's core
            // count and preemption, so assert accounting invariants
            // rather than a contention floor: fifo never backs off, and
            // the adaptive policies back off exactly once per conflict.
            if p.policy == "fifo" {
                assert_eq!(p.backoff_waits, 0, "fifo issues no backoff hints");
            } else {
                assert_eq!(
                    p.backoff_waits, p.retries,
                    "{}/{}: one backoff wait per conflict abort",
                    p.policy, p.hot_pct
                );
            }
        }
    }

    #[test]
    fn hotspot_builder_partitions_tasks() {
        let h = hotspot(40, 25);
        assert_eq!(h.tasks.len(), 40);
        assert_eq!(h.footprints.len(), 40);
        assert_eq!(h.expected_hot, (1..=10).sum::<i64>());
        let hot_fp = vec![h.hot.0];
        assert_eq!(h.footprints.iter().filter(|fp| **fp == hot_fp).count(), 10);
    }
}

//! Scheduler counters, absorbed by the unified metrics registry.

/// Monotone counters describing what the scheduler did during one run,
/// populated by the bound [`TaskSource`](crate::TaskSource).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks handed to workers (every task exactly once).
    pub dispatched: u64,
    /// Aborted attempts that waited a non-zero backoff before retrying.
    pub backoff_waits: u64,
    /// Total backoff steps waited across all retries (one step is one
    /// spin/yield/park unit of [`backoff::wait`](crate::backoff::wait)).
    pub backoff_steps: u64,
}

impl janus_obs::Snapshot for SchedStats {
    fn source(&self) -> &'static str {
        "sched"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("dispatched".to_string(), self.dispatched),
            ("backoff_waits".to_string(), self.backoff_waits),
            ("backoff_steps".to_string(), self.backoff_steps),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_obs::Snapshot;

    #[test]
    fn snapshot_exposes_every_counter() {
        let stats = SchedStats {
            dispatched: 3,
            backoff_waits: 2,
            ..Default::default()
        };
        assert_eq!(stats.source(), "sched");
        let counters = stats.counters();
        assert_eq!(counters.len(), 3);
        assert!(counters.contains(&("dispatched".to_string(), 3)));
        assert!(counters.contains(&("backoff_waits".to_string(), 2)));
    }
}

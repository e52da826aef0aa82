//! Monotone journal counters, surfaced through the metrics registry.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::recover::Recovered;

/// Monotone counters for one journal, shared by every thread appending
/// to it. Implements [`janus_obs::Snapshot`] (source `"wal"`), so serve
/// and bench runs surface `wal.appends`, `wal.fsync_batches`, … through
/// the same registry as every other subsystem.
#[derive(Debug, Default)]
pub struct WalStats {
    pub(crate) appends: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) fsync_batches: AtomicU64,
    pub(crate) snapshots: AtomicU64,
    pub(crate) crash_points: AtomicU64,
    pub(crate) io_errors: AtomicU64,
    pub(crate) torn_truncations: AtomicU64,
    pub(crate) recovery_replays: AtomicU64,
    turns: AtomicU64,
    turn_records_max: AtomicU64,
}

impl WalStats {
    /// Commit records drained into the journal buffer.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Framed bytes buffered (record frames, headers excluded).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Group-commit flushes: each is one `write` + one fsync covering
    /// every record buffered since the previous flush.
    pub fn fsync_batches(&self) -> u64 {
        self.fsync_batches.load(Ordering::Relaxed)
    }

    /// Journal-thread turns: each took every record queued since the
    /// previous one and applied the fsync policy once.
    pub fn turns(&self) -> u64 {
        self.turns.load(Ordering::Relaxed)
    }

    /// The most records one turn took: the deepest the queue got.
    pub fn turn_records_max(&self) -> u64 {
        self.turn_records_max.load(Ordering::Relaxed)
    }

    pub(crate) fn note_turn(&self, records: u64) {
        self.turns.fetch_add(1, Ordering::Relaxed);
        self.turn_records_max.fetch_max(records, Ordering::Relaxed);
    }

    /// Store snapshots written (each truncates the segments below it).
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Injected crash points taken (the journal is dead afterwards).
    pub fn crash_points(&self) -> u64 {
        self.crash_points.load(Ordering::Relaxed)
    }

    /// I/O errors that killed the journal.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Torn tails truncated by recoveries noted on these stats.
    pub fn torn_truncations(&self) -> u64 {
        self.torn_truncations.load(Ordering::Relaxed)
    }

    /// Records replayed by recoveries noted on these stats.
    pub fn recovery_replays(&self) -> u64 {
        self.recovery_replays.load(Ordering::Relaxed)
    }

    /// Folds a recovery's outcome into the counters, so a service that
    /// recovered on boot reports the replay work alongside its live
    /// journal traffic.
    pub fn note_recovery(&self, recovered: &Recovered) {
        self.recovery_replays
            .fetch_add(recovered.commits_replayed, Ordering::Relaxed);
        self.torn_truncations
            .fetch_add(recovered.torn_tail_truncations, Ordering::Relaxed);
    }
}

impl janus_obs::Snapshot for WalStats {
    fn source(&self) -> &'static str {
        "wal"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("appends".to_string(), self.appends()),
            ("bytes".to_string(), self.bytes()),
            ("fsync_batches".to_string(), self.fsync_batches()),
            ("turns".to_string(), self.turns()),
            ("turn_records_max".to_string(), self.turn_records_max()),
            ("snapshots".to_string(), self.snapshots()),
            ("crash_points".to_string(), self.crash_points()),
            ("io_errors".to_string(), self.io_errors()),
            ("torn_tail_truncations".to_string(), self.torn_truncations()),
            ("recovery_replays".to_string(), self.recovery_replays()),
        ]
    }
}

//! Block- and service-level statistics: `batch.*` and `serve.*`
//! counters plus the latency/depth histograms, exportable into a
//! [`MetricsRegistry`].

use std::sync::atomic::{AtomicU64, Ordering};

use janus_obs::{Histogram, MetricsRegistry, Snapshot};
use parking_lot::Mutex;

/// Concurrent block-pipeline counters, shared between the
/// [`BlockExecutor`](crate::BlockExecutor) and its blocks' pool jobs.
#[derive(Default)]
pub struct BlockStats {
    pub(crate) blocks_submitted: AtomicU64,
    pub(crate) blocks_committed: AtomicU64,
    pub(crate) blocks_failed: AtomicU64,
    pub(crate) txns_committed: AtomicU64,
    pub(crate) txns_retried: AtomicU64,
    pub(crate) txns_failed: AtomicU64,
    /// Per-block latency, in microseconds. Its sum against the stream's
    /// wall clock yields the overlap ratio: depth-2 pipelining can push
    /// busy/wall up to 2.0.
    pub(crate) latency_us: Mutex<Histogram>,
    /// Transactions per block.
    pub(crate) block_size: Mutex<Histogram>,
}

impl BlockStats {
    /// A point-in-time snapshot of the counters.
    pub fn report(&self, stream_wall_micros: u64) -> BatchReport {
        let busy = self.latency_us.lock().sum();
        BatchReport {
            blocks_submitted: self.blocks_submitted.load(Ordering::Relaxed),
            blocks_committed: self.blocks_committed.load(Ordering::Relaxed),
            blocks_failed: self.blocks_failed.load(Ordering::Relaxed),
            txns_committed: self.txns_committed.load(Ordering::Relaxed),
            txns_retried: self.txns_retried.load(Ordering::Relaxed),
            txns_failed: self.txns_failed.load(Ordering::Relaxed),
            busy_micros: busy,
            overlap_permille: overlap_permille(busy, stream_wall_micros),
        }
    }

    /// Exports counters (under `batch.*`) and histograms
    /// (`batch.latency_us`, `batch.size`) into a registry.
    pub fn export(&self, stream_wall_micros: u64, registry: &mut MetricsRegistry) {
        registry.absorb(&self.report(stream_wall_micros));
        registry.merge_histogram("batch.latency_us", &self.latency_us.lock());
        registry.merge_histogram("batch.size", &self.block_size.lock());
    }
}

/// `busy/wall` expressed as overlap: 0 when the stream ran serially
/// (busy <= wall), up to 1000 when two blocks were always in flight.
fn overlap_permille(busy_micros: u64, wall_micros: u64) -> u64 {
    if wall_micros == 0 || busy_micros <= wall_micros {
        return 0;
    }
    ((busy_micros - wall_micros) * 1000) / wall_micros
}

/// The `batch.*` snapshot: one value per pipeline counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Blocks handed to the executor.
    pub blocks_submitted: u64,
    /// Blocks that drained normally.
    pub blocks_committed: u64,
    /// Blocks lost to a poison panic or watchdog fire.
    pub blocks_failed: u64,
    /// Transactions committed across all blocks.
    pub txns_committed: u64,
    /// Aborted transaction attempts across all blocks.
    pub txns_retried: u64,
    /// Transactions isolated after a body panic.
    pub txns_failed: u64,
    /// Sum of per-block wall times (microseconds).
    pub busy_micros: u64,
    /// Pipeline overlap, in permille of the stream wall clock
    /// (0 = serial, 1000 = two blocks always in flight).
    pub overlap_permille: u64,
}

impl Snapshot for BatchReport {
    fn source(&self) -> &'static str {
        "batch"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("blocks_submitted".into(), self.blocks_submitted),
            ("blocks_committed".into(), self.blocks_committed),
            ("blocks_failed".into(), self.blocks_failed),
            ("txns_committed".into(), self.txns_committed),
            ("txns_retried".into(), self.txns_retried),
            ("txns_failed".into(), self.txns_failed),
            ("busy_micros".into(), self.busy_micros),
            ("overlap_permille".into(), self.overlap_permille),
        ]
    }
}

/// Concurrent admission-control counters for the serve loop.
#[derive(Default)]
pub struct ServeStats {
    pub(crate) admitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) txns_in: AtomicU64,
    /// Inflight-queue depth sampled at each admission attempt.
    pub(crate) depth: Mutex<Histogram>,
}

impl ServeStats {
    /// Records `blocks` batches as fully processed (committed or
    /// failed). Called by the serve loop as blocks retire.
    pub fn note_completed(&self, blocks: u64) {
        self.completed.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Records `txns` transactions accepted into an admitted batch.
    pub fn note_txns_in(&self, txns: u64) {
        self.txns_in.fetch_add(txns, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the counters.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            txns_in: self.txns_in.load(Ordering::Relaxed),
        }
    }

    /// Exports counters (under `serve.*`) and the `serve.inflight_depth`
    /// histogram into a registry.
    pub fn export(&self, registry: &mut MetricsRegistry) {
        registry.absorb(&self.report());
        registry.merge_histogram("serve.inflight_depth", &self.depth.lock());
    }
}

/// The `serve.*` snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Batches admitted into the inflight queue.
    pub admitted: u64,
    /// Batches refused because the queue was full.
    pub shed: u64,
    /// Batches fully processed (committed or failed).
    pub completed: u64,
    /// Transactions accepted across all admitted batches.
    pub txns_in: u64,
}

impl Snapshot for ServeReport {
    fn source(&self) -> &'static str {
        "serve"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("batches_admitted".into(), self.admitted),
            ("batches_shed".into(), self.shed),
            ("batches_completed".into(), self.completed),
            ("txns_in".into(), self.txns_in),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_permille_is_zero_for_serial_and_positive_for_overlap() {
        assert_eq!(overlap_permille(100, 100), 0);
        assert_eq!(overlap_permille(50, 100), 0);
        assert_eq!(overlap_permille(200, 100), 1000);
        assert_eq!(overlap_permille(150, 100), 500);
        assert_eq!(overlap_permille(0, 0), 0);
    }

    #[test]
    fn reports_land_under_their_prefixes() {
        let block = BlockStats::default();
        block.blocks_submitted.store(3, Ordering::Relaxed);
        block.txns_committed.store(30, Ordering::Relaxed);
        block.latency_us.lock().observe(500);
        let serve = ServeStats::default();
        serve.admitted.store(3, Ordering::Relaxed);
        serve.shed.store(1, Ordering::Relaxed);
        serve.depth.lock().observe(2);

        let mut m = MetricsRegistry::new();
        block.export(1_000, &mut m);
        serve.export(&mut m);
        assert_eq!(m.counter("batch.blocks_submitted"), 3);
        assert_eq!(m.counter("batch.txns_committed"), 30);
        assert_eq!(m.counter("batch.busy_micros"), 500, "the latency sum");
        assert_eq!(m.counter("serve.batches_admitted"), 3);
        assert_eq!(m.counter("serve.batches_shed"), 1);
        assert_eq!(m.histogram("batch.latency_us").unwrap().count(), 1);
        assert_eq!(m.histogram("serve.inflight_depth").unwrap().count(), 1);
    }
}

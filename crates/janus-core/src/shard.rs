//! The sharded store behind the per-shard commit path (DESIGN.md §9).
//!
//! `Shared.slots` is split into N class-hash-routed shards, each behind
//! its own read-write lock, so disjoint-footprint commits touch disjoint
//! shards and never contend. The global commit *order* survives as a
//! lightweight timestamp oracle — one fetch-add ticket counter — instead
//! of a lock held across apply: every commit draws one ticket while its
//! shard locks are held, every begin reads the counter before
//! snapshotting, and history reclamation prunes each shard independently
//! once the watermark (the minimum active begin ticket) passes an entry.
//!
//! Lock-ordering invariant: a committer write-locks exactly its touched
//! shards, always in ascending shard index; nothing else ever holds two
//! shard locks at once. GC-safety invariant: a transaction draws its
//! begin ticket, registers it (pinning the watermark), and only then
//! snapshots — so every history entry with a smaller ticket was
//! published under a shard write lock that completed before the
//! snapshot's read lock, is inside the snapshot, and is therefore
//! prunable without ever being needed again. Both invariants are
//! model-checked exhaustively in `tests/shard_model.rs`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use janus_log::{CommittedLog, LocId};
use janus_persist::PersistentMap;
use parking_lot::{Mutex, RwLock};

use crate::store::Slot;

/// Default number of store shards. Small enough that per-begin shard
/// snapshots stay cheap, large enough that workloads with a handful of
/// hot classes spread out.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// One committed history entry in one shard: the shard's slice of a
/// transaction's log, stamped with the commit sequence ticket the oracle
/// assigned to the whole transaction.
pub(crate) struct SeqEntry {
    /// The owning transaction's global commit sequence number.
    pub seq: u64,
    /// The transaction's operations on this shard's locations,
    /// pre-decomposed once at commit.
    pub log: Arc<CommittedLog>,
}

/// One shard's lock-guarded state: its slice of the slots and the
/// committed history published into it.
pub(crate) struct ShardData {
    pub slots: PersistentMap<LocId, Slot>,
    /// Retained history entries. Seq-monotone: appends happen under the
    /// shard write lock, and the appender draws its ticket while holding
    /// that lock, so two appenders to one shard are fully ordered.
    pub history: VecDeque<SeqEntry>,
    /// Absolute position of `history[0]`: positions `0..start` were
    /// reclaimed. Windows are positional, not ticket-indexed, so pruned
    /// turns (and transactions that skipped this shard) leave no holes.
    pub start: u64,
}

impl ShardData {
    fn new(slots: PersistentMap<LocId, Slot>) -> Self {
        ShardData {
            slots,
            history: VecDeque::new(),
            start: 0,
        }
    }

    /// The absolute position one past the newest entry — the value a
    /// validator records and later compares to detect a moved history.
    pub fn head(&self) -> u64 {
        self.start + self.history.len() as u64
    }

    /// Appends `Arc` clones of every entry from absolute position `from`
    /// to the head (the shard's zero-copy window contribution).
    ///
    /// # Panics
    ///
    /// Panics if `from` has fallen below the pruned prefix — which the
    /// begin protocol (ticket, register, then snapshot) rules out for
    /// every registered transaction.
    pub fn collect_from(&self, from: u64, out: &mut Vec<Arc<CommittedLog>>) {
        let lo = from.checked_sub(self.start).unwrap_or_else(|| {
            panic!(
                "window position {from} is below the pruned prefix {}",
                self.start
            )
        });
        let lo = usize::try_from(lo).expect("window offset fits in usize");
        out.extend(self.history.iter().skip(lo).map(|e| Arc::clone(&e.log)));
    }

    /// Epoch reclamation: drops the history prefix whose tickets are
    /// strictly below `floor` (the watermark). Per-shard seq
    /// monotonicity makes that prefix exactly the reclaimable set.
    /// Returns the number of entries dropped.
    pub fn prune(&mut self, floor: u64) -> u64 {
        let mut dropped = 0u64;
        while self.history.front().is_some_and(|e| e.seq < floor) {
            self.history.pop_front();
            dropped += 1;
        }
        self.start += dropped;
        dropped
    }
}

/// One store shard: its data behind its own lock, plus its commit-path
/// statistics (updated outside the lock where possible).
pub(crate) struct Shard {
    pub data: RwLock<ShardData>,
    pub stats: ShardCounters,
}

/// Splits a store's slots into `shards` class-hash-routed maps. O(n log n),
/// once per run.
pub(crate) fn partition_slots(slots: &PersistentMap<LocId, Slot>, shards: usize) -> Vec<Shard> {
    let mut maps: Vec<PersistentMap<LocId, Slot>> = vec![PersistentMap::default(); shards];
    for (loc, slot) in slots.iter() {
        maps[loc.shard(shards)].insert(*loc, slot.clone());
    }
    maps.into_iter()
        .map(|m| Shard {
            data: RwLock::new(ShardData::new(m)),
            stats: ShardCounters::default(),
        })
        .collect()
}

/// Reassembles the final store slots from the shards at run exit.
pub(crate) fn merge_slots(shards: Vec<Shard>) -> (PersistentMap<LocId, Slot>, ShardReport) {
    let mut slots = PersistentMap::default();
    let mut report = ShardReport(Vec::with_capacity(shards.len()));
    for (i, shard) in shards.into_iter().enumerate() {
        let data = shard.data.into_inner();
        for (loc, slot) in data.slots.iter() {
            slots.insert(*loc, slot.clone());
        }
        report.0.push(shard.stats.snapshot(i, data.history.len()));
    }
    (slots, report)
}

/// Non-consuming variant of [`merge_slots`] for long-lived sessions:
/// reassembles a point-in-time view of the slots by read-locking one
/// shard at a time. A torn cut across shards is sound for the same
/// reason per-begin snapshots are: each location lives in exactly one
/// shard.
pub(crate) fn snapshot_slots(shards: &[Shard]) -> PersistentMap<LocId, Slot> {
    let mut slots = PersistentMap::default();
    for shard in shards {
        let g = shard.data.read();
        for (loc, slot) in g.slots.iter() {
            slots.insert(*loc, slot.clone());
        }
    }
    slots
}

/// Non-consuming variant of the [`merge_slots`] report for long-lived
/// sessions: snapshots every shard's counters and retained-history
/// length without tearing the shards down.
pub(crate) fn report(shards: &[Shard]) -> ShardReport {
    ShardReport(
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.stats.snapshot(i, s.data.read().history.len()))
            .collect(),
    )
}

/// The commit-sequence oracle: a single fetch-add ticket counter that
/// replaces the global commit clock. The counter starts at 1 (matching
/// the seed protocol's clock), every commit — and every released ordered
/// turn — consumes exactly one ticket, and no lock is ever held on it.
pub(crate) struct Oracle {
    next: AtomicU64,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle {
            next: AtomicU64::new(1),
        }
    }

    /// The next ticket to be issued — the begin timestamp. Acquire:
    /// pairs with the AcqRel ticket draw, so a begin observing
    /// `next == b` also observes every shard publish made by the commits
    /// that drew tickets below `b` (the GC-safety invariant).
    pub fn now(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Draws one commit ticket. AcqRel: the release half publishes the
    /// drawer's shard appends to later begins (see [`Oracle::now`]); the
    /// acquire half orders consecutive drawers so per-shard history
    /// stays seq-monotone.
    pub fn ticket(&self) -> u64 {
        self.next.fetch_add(1, Ordering::AcqRel)
    }
}

/// The multiset of in-flight transactions' begin tickets, with the
/// minimum — the GC watermark — cached in one atomic so the per-commit
/// reclamation hot path never touches the mutex.
pub(crate) struct ActiveBegins {
    map: Mutex<BTreeMap<u64, usize>>,
    /// Cached minimum key; `u64::MAX` when no transaction is in flight
    /// (the pruner caps it at the oracle's `now`). Refreshed on every
    /// register/unregister under the mutex, read lock-free.
    watermark: AtomicU64,
}

impl Default for ActiveBegins {
    fn default() -> Self {
        ActiveBegins {
            map: Mutex::new(BTreeMap::new()),
            watermark: AtomicU64::new(u64::MAX),
        }
    }
}

impl ActiveBegins {
    pub fn register(&self, begin: u64) {
        let mut map = self.map.lock();
        *map.entry(begin).or_insert(0) += 1;
        self.publish(&map);
    }

    pub fn unregister(&self, begin: u64) {
        let mut map = self.map.lock();
        match map.get_mut(&begin) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                map.remove(&begin);
            }
            None => unreachable!("unregistering an unknown begin"),
        }
        self.publish(&map);
    }

    fn publish(&self, map: &BTreeMap<u64, usize>) {
        let min = map.keys().next().copied().unwrap_or(u64::MAX);
        // Release: pairs with the Acquire in `watermark()` so a pruner
        // that reads a raised watermark also sees the raiser's
        // unregister completed (the map and the cache agree).
        self.watermark.store(min, Ordering::Release);
    }

    /// The GC watermark: pruning tickets strictly below it is safe.
    /// Lock-free — this is the per-commit hot path.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }
}

/// Lock-free per-shard commit-path counters, updated by committers and
/// snapshotted into [`ShardReport`] at run exit.
#[derive(Default)]
pub(crate) struct ShardCounters {
    commits: AtomicU64,
    pruned: AtomicU64,
    /// Log2-bucketed write-lock acquisition wait, in nanoseconds
    /// (the contention signal: disjoint-shard workloads keep it flat).
    lock_wait_buckets: LockWaitBuckets,
    lock_wait_sum: AtomicU64,
    lock_wait_max: AtomicU64,
}

struct LockWaitBuckets([AtomicU64; 65]);

impl Default for LockWaitBuckets {
    fn default() -> Self {
        LockWaitBuckets(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl ShardCounters {
    /// Records one committed transaction touching this shard.
    /// Relaxed: statistics, read only after the run joins its workers.
    pub fn commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records entries reclaimed from this shard.
    pub fn reclaimed(&self, n: u64) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Entries reclaimed from this shard so far (sessions subtract a
    /// baseline to attribute reclamation to one batch).
    pub fn reclaimed_total(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Records one write-lock acquisition wait.
    pub fn lock_wait(&self, wait: Duration) {
        let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        self.lock_wait_buckets.0[(64 - ns.leading_zeros()) as usize]
            .fetch_add(1, Ordering::Relaxed);
        self.lock_wait_sum.fetch_add(ns, Ordering::Relaxed);
        self.lock_wait_max.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self, shard: usize, history_len: usize) -> ShardStatsSnapshot {
        let buckets: [u64; 65] =
            std::array::from_fn(|i| self.lock_wait_buckets.0[i].load(Ordering::Relaxed));
        ShardStatsSnapshot {
            shard,
            commits: self.commits.load(Ordering::Relaxed),
            history_len: history_len as u64,
            pruned: self.pruned.load(Ordering::Relaxed),
            lock_wait_ns: janus_obs::Histogram::from_log2_buckets(
                buckets,
                self.lock_wait_sum.load(Ordering::Relaxed),
                self.lock_wait_max.load(Ordering::Relaxed),
            ),
        }
    }
}

/// One shard's commit-path statistics at run exit.
#[derive(Debug, Clone)]
pub struct ShardStatsSnapshot {
    /// The shard's index.
    pub shard: usize,
    /// Committed transactions that touched this shard.
    pub commits: u64,
    /// History entries still retained at run exit.
    pub history_len: u64,
    /// History entries reclaimed by epoch GC.
    pub pruned: u64,
    /// Write-lock acquisition wait per commit, in nanoseconds.
    pub lock_wait_ns: janus_obs::Histogram,
}

/// Per-shard statistics for a whole run, absorbable by the unified
/// metrics registry (one counter set per shard, `s<i>.<name>`).
#[derive(Debug, Clone, Default)]
pub struct ShardReport(pub Vec<ShardStatsSnapshot>);

impl ShardReport {
    /// All shards' lock-wait samples merged into one histogram.
    pub fn lock_wait_ns(&self) -> janus_obs::Histogram {
        let mut h = janus_obs::Histogram::default();
        for s in &self.0 {
            h.merge(&s.lock_wait_ns);
        }
        h
    }
}

impl janus_obs::Snapshot for ShardReport {
    fn source(&self) -> &'static str {
        "shard"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.0.len() * 4);
        for s in &self.0 {
            out.push((format!("s{}.commits", s.shard), s.commits));
            out.push((format!("s{}.history_len", s.shard), s.history_len));
            out.push((format!("s{}.pruned", s.shard), s.pruned));
            out.push((
                format!("s{}.lock_wait_ns_sum", s.shard),
                s.lock_wait_ns.sum(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_log::{ClassId, Op, OpKind, ScalarOp};
    use janus_relational::Value;

    fn entry(seq: u64) -> SeqEntry {
        let mut v = Value::int(0);
        let op = Op::execute(
            LocId(seq),
            ClassId::new("t"),
            OpKind::Scalar(ScalarOp::Add(1)),
            &mut v,
        )
        .0;
        SeqEntry {
            seq,
            log: Arc::new(CommittedLog::new(vec![op])),
        }
    }

    #[test]
    fn positional_windows_survive_pruning() {
        let mut d = ShardData::new(PersistentMap::default());
        for seq in [3, 5, 9, 12] {
            d.history.push_back(entry(seq));
        }
        assert_eq!(d.head(), 4);
        let mut w = Vec::new();
        d.collect_from(1, &mut w);
        assert_eq!(w.len(), 3, "window [1, head)");
        assert_eq!(d.prune(9), 2, "tickets 3 and 5 fall below the floor");
        assert_eq!(d.start, 2);
        assert_eq!(d.head(), 4, "absolute head is pruning-invariant");
        let mut w = Vec::new();
        d.collect_from(2, &mut w);
        assert_eq!(w.len(), 2);
        // Prune is idempotent at the same floor.
        assert_eq!(d.prune(9), 0);
    }

    #[test]
    #[should_panic(expected = "below the pruned prefix")]
    fn window_below_the_pruned_prefix_panics() {
        let mut d = ShardData::new(PersistentMap::default());
        d.history.push_back(entry(1));
        d.prune(2);
        let mut w = Vec::new();
        d.collect_from(0, &mut w);
    }

    #[test]
    fn oracle_tickets_are_dense_from_one() {
        let o = Oracle::new();
        assert_eq!(o.now(), 1);
        assert_eq!(o.ticket(), 1);
        assert_eq!(o.ticket(), 2);
        assert_eq!(o.now(), 3);
    }

    #[test]
    fn watermark_tracks_the_minimum_active_begin() {
        let a = ActiveBegins::default();
        assert_eq!(a.watermark(), u64::MAX, "idle: capped by the caller");
        a.register(7);
        a.register(3);
        a.register(3);
        assert_eq!(a.watermark(), 3);
        a.unregister(3);
        assert_eq!(a.watermark(), 3, "multiset: one of two threes remains");
        a.unregister(3);
        assert_eq!(a.watermark(), 7);
        a.unregister(7);
        assert_eq!(a.watermark(), u64::MAX);
    }

    #[test]
    fn partition_routes_by_class_hash_and_merge_restores() {
        let mut slots = PersistentMap::default();
        let locs: Vec<LocId> = (0..20u64)
            .map(|i| {
                let class = ClassId::new(format!("c{}", i % 5));
                let loc = LocId((i << janus_log::SHARD_BITS) | class.shard_hint());
                slots.insert(
                    loc,
                    Slot {
                        class,
                        value: Value::int(i as i64),
                    },
                );
                loc
            })
            .collect();
        let shards = partition_slots(&slots, 4);
        assert_eq!(shards.len(), 4);
        for (i, shard) in shards.iter().enumerate() {
            let g = shard.data.read();
            for (loc, _) in g.slots.iter() {
                assert_eq!(loc.shard(4), i, "{loc} routed to shard {i}");
            }
        }
        let (merged, report) = merge_slots(shards);
        assert_eq!(merged.len(), slots.len());
        for loc in locs {
            assert_eq!(
                merged.get(&loc).map(|s| &s.value),
                slots.get(&loc).map(|s| &s.value)
            );
        }
        assert_eq!(report.0.len(), 4);
        assert!(report.0.iter().all(|s| s.pruned == 0));
    }

    #[test]
    fn shard_counters_snapshot_into_the_report() {
        let c = ShardCounters::default();
        c.commit();
        c.commit();
        c.reclaimed(3);
        c.lock_wait(Duration::from_nanos(100));
        c.lock_wait(Duration::from_nanos(1000));
        let snap = c.snapshot(2, 5);
        assert_eq!(snap.shard, 2);
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.pruned, 3);
        assert_eq!(snap.history_len, 5);
        assert_eq!(snap.lock_wait_ns.count(), 2);
        assert_eq!(snap.lock_wait_ns.sum(), 1100);
        assert_eq!(snap.lock_wait_ns.max(), 1000);
        let report = ShardReport(vec![snap]);
        use janus_obs::Snapshot as _;
        let counters = report.counters();
        assert!(counters.contains(&("s2.commits".to_string(), 2)));
        assert!(counters.contains(&("s2.pruned".to_string(), 3)));
        assert_eq!(report.lock_wait_ns().count(), 2);
    }
}

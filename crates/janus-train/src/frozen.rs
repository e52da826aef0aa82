//! A frozen, lock-free view of the commutativity cache for production.
//!
//! [`CommutativityCache`] answers queries through a `BTreeMap` walk and
//! records statistics under a `Mutex` — fine for training, but in
//! production every validated cell takes that lock, and under high thread
//! counts the stats mutex becomes the hottest line in the cache. Freezing
//! converts the trained cache into an immutable, hash-indexed structure
//! whose query path is entirely lock-free:
//!
//! * buckets move into a two-level `HashMap<ClassId, _>` keyed by class
//!   then cell shape, so a lookup is one hash probe with **no key clone**;
//! * hit/miss totals are plain atomic counters;
//! * the §7.1 *unique*-signature set becomes an open-addressed table of
//!   `AtomicU64` slots claimed by compare-and-swap — readers and writers
//!   never block, and the table is bounded (1 MiB) regardless of run
//!   length.
//!
//! Combined with the compact-NFA matcher and inline abstraction buffers,
//! a frozen query performs **zero heap allocations** for transactions
//! touching ≤ [`INLINE_OPS`] operations per cell (the common case by a
//! wide margin), and acquires no mutex ever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use janus_detect::{Relaxation, SequenceOracle};
use janus_log::{splitmix64, CellKey, ClassId, Op};
use janus_relational::Value;

use crate::abstraction::{abstract_kind, AbstractOp};
use crate::cache::{signature, CellShape, CommutativityCache, Entry};
use crate::condition::evaluate_condition;
use crate::Condition;

/// Abstract operations buffered on the stack per query side; longer
/// sequences spill to a heap vector.
pub const INLINE_OPS: usize = 32;

/// Number of `AtomicU64` slots in the unique-signature table. Power of
/// two; at 2× [`FrozenCacheStats::UNIQUE_SIG_CAP`] the load factor stays
/// ≤ 0.5, keeping linear probes short.
const SIG_SLOTS: usize = 1 << 17;

/// Probes attempted before a signature is counted as overflow instead of
/// inserted. Bounds worst-case work under adversarial clustering.
const MAX_PROBES: usize = 64;

/// Stand-in for the (astronomically unlikely) signature value 0, which
/// the table reserves as the empty-slot marker.
const ZERO_SIG_ALIAS: u64 = 0x9e37_79b9_7f4a_7c15;

/// Lock-free statistics of a [`FrozenCache`]: the same counters as
/// [`crate::CacheStats`] (total and §7.1 *unique* hits/misses), recorded
/// without any mutex. Unique signatures live in a fixed open-addressed
/// table of [`AtomicU64`] slots; a slot is claimed exactly once by
/// compare-and-swap, and the thread that wins the claim attributes the
/// signature's first outcome — identical first-outcome semantics to the
/// mutexed implementation. Signatures that arrive after
/// [`UNIQUE_SIG_CAP`](FrozenCacheStats::UNIQUE_SIG_CAP) distinct entries
/// (or whose probe window is full) are counted in
/// [`unique_overflow`](FrozenCacheStats::unique_overflow).
#[derive(Debug)]
pub struct FrozenCacheStats {
    /// Total per-cell queries answered from the cache.
    pub hits: AtomicU64,
    /// Total per-cell queries that missed.
    pub misses: AtomicU64,
    slots: Box<[AtomicU64]>,
    occupied: AtomicU64,
    unique_hits: AtomicU64,
    unique_misses: AtomicU64,
    unique_overflow: AtomicU64,
}

impl Default for FrozenCacheStats {
    fn default() -> Self {
        FrozenCacheStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slots: (0..SIG_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            occupied: AtomicU64::new(0),
            unique_hits: AtomicU64::new(0),
            unique_misses: AtomicU64::new(0),
            unique_overflow: AtomicU64::new(0),
        }
    }
}

impl FrozenCacheStats {
    /// Maximum number of distinct query signatures tracked for the
    /// unique-miss-rate metric (matches [`crate::CacheStats`]).
    pub const UNIQUE_SIG_CAP: usize = 1 << 16;

    /// Unique query signatures that hit, and that missed.
    pub fn unique_counts(&self) -> (u64, u64) {
        (
            self.unique_hits.load(Ordering::Relaxed),
            self.unique_misses.load(Ordering::Relaxed),
        )
    }

    /// Signatures not tracked because the unique set was full (or the
    /// bounded probe window was exhausted).
    pub fn unique_overflow(&self) -> u64 {
        self.unique_overflow.load(Ordering::Relaxed)
    }

    /// The unique-query miss rate in percent (the Figure 11 metric), or
    /// `None` if no queries were recorded.
    pub fn miss_rate_percent(&self) -> Option<f64> {
        let (h, m) = self.unique_counts();
        let total = h + m;
        (total > 0).then(|| 100.0 * m as f64 / total as f64)
    }

    /// Resets all statistics. Not linearizable against concurrent
    /// `record` calls — call between measurement phases, as with
    /// [`crate::CacheStats::reset`].
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.occupied.store(0, Ordering::Relaxed);
        self.unique_hits.store(0, Ordering::Relaxed);
        self.unique_misses.store(0, Ordering::Relaxed);
        self.unique_overflow.store(0, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    fn record(&self, sig: u64, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let sig = if sig == 0 { ZERO_SIG_ALIAS } else { sig };
        let mask = SIG_SLOTS - 1;
        let mut idx = splitmix64(sig) as usize & mask;
        for _ in 0..MAX_PROBES {
            let slot = &self.slots[idx];
            match slot.load(Ordering::Relaxed) {
                0 => {
                    // Reserve capacity before claiming the slot so the
                    // distinct-signature count never exceeds the cap.
                    if self.occupied.fetch_add(1, Ordering::Relaxed)
                        >= FrozenCacheStats::UNIQUE_SIG_CAP as u64
                    {
                        self.occupied.fetch_sub(1, Ordering::Relaxed);
                        self.unique_overflow.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    match slot.compare_exchange(0, sig, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(_) => {
                            if hit {
                                self.unique_hits.fetch_add(1, Ordering::Relaxed);
                            } else {
                                self.unique_misses.fetch_add(1, Ordering::Relaxed);
                            }
                            return;
                        }
                        Err(existing) => {
                            // Lost the race: return the reservation and
                            // re-examine what the winner wrote.
                            self.occupied.fetch_sub(1, Ordering::Relaxed);
                            if existing == sig {
                                return;
                            }
                        }
                    }
                }
                s if s == sig => return,
                _ => {}
            }
            idx = (idx + 1) & mask;
        }
        self.unique_overflow.fetch_add(1, Ordering::Relaxed);
    }
}

impl janus_obs::Snapshot for FrozenCacheStats {
    fn source(&self) -> &'static str {
        "cache"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let (unique_hits, unique_misses) = self.unique_counts();
        vec![
            ("hits".to_string(), self.hits.load(Ordering::Relaxed)),
            ("misses".to_string(), self.misses.load(Ordering::Relaxed)),
            ("unique_hits".to_string(), unique_hits),
            ("unique_misses".to_string(), unique_misses),
            ("unique_overflow".to_string(), self.unique_overflow()),
        ]
    }
}

/// Per-class entry lists, split by cell shape so a query indexes its
/// shape without composing a hashed key.
#[derive(Debug, Default)]
struct FrozenBucket {
    whole: Box<[Entry]>,
    keyed: Box<[Entry]>,
}

impl FrozenBucket {
    fn of(&self, shape: CellShape) -> &[Entry] {
        match shape {
            CellShape::Whole => &self.whole,
            CellShape::Keyed => &self.keyed,
        }
    }
}

/// The immutable production form of a trained [`CommutativityCache`]:
/// hash-indexed entry lookup, lock-free statistics, and a query path
/// that allocates nothing for ordinary transactions. Built once with
/// [`CommutativityCache::freeze`], then shared across worker threads
/// behind an `Arc`. Implements [`SequenceOracle`], so it plugs into
/// `janus_detect::CachedSequenceDetector` exactly like the mutable cache.
#[derive(Debug)]
pub struct FrozenCache {
    buckets: HashMap<ClassId, FrozenBucket>,
    use_abstraction: bool,
    entries: usize,
    stats: FrozenCacheStats,
}

impl FrozenCache {
    pub(crate) fn from_cache(cache: CommutativityCache) -> FrozenCache {
        let (tree, use_abstraction) = cache.into_parts();
        let mut buckets: HashMap<ClassId, FrozenBucket> = HashMap::new();
        let mut entries = 0;
        for (key, list) in tree {
            entries += list.len();
            let bucket = buckets.entry(key.class).or_default();
            match key.shape {
                CellShape::Whole => bucket.whole = list.into_boxed_slice(),
                CellShape::Keyed => bucket.keyed = list.into_boxed_slice(),
            }
        }
        FrozenCache {
            buckets,
            use_abstraction,
            entries,
            stats: FrozenCacheStats::default(),
        }
    }

    /// Whether sequence abstraction was in force during training.
    pub fn uses_abstraction(&self) -> bool {
        self.use_abstraction
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Cache usage statistics.
    pub fn stats(&self) -> &FrozenCacheStats {
        &self.stats
    }

    fn find(
        &self,
        class: &ClassId,
        shape: CellShape,
        qa: &[AbstractOp],
        qb: &[AbstractOp],
    ) -> Option<Condition> {
        let entries = self.buckets.get(class)?.of(shape);
        entries
            .iter()
            .find(|e| {
                (e.nfa_a.matches(qa) && e.nfa_b.matches(qb))
                    || (e.nfa_a.matches(qb) && e.nfa_b.matches(qa))
            })
            .map(|e| e.condition)
    }
}

/// Abstracts `ops` into `buf` when it fits, spilling to `heap` otherwise.
fn abstract_into<'a>(
    ops: &[&Op],
    buf: &'a mut [AbstractOp; INLINE_OPS],
    heap: &'a mut Vec<AbstractOp>,
) -> &'a [AbstractOp] {
    if ops.len() <= INLINE_OPS {
        for (slot, op) in buf.iter_mut().zip(ops) {
            *slot = abstract_kind(op);
        }
        &buf[..ops.len()]
    } else {
        heap.extend(ops.iter().map(|op| abstract_kind(op)));
        &heap[..]
    }
}

impl SequenceOracle for FrozenCache {
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool> {
        let (mut buf_a, mut heap_a) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
        let (mut buf_b, mut heap_b) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
        let qa = abstract_into(txn, &mut buf_a, &mut heap_a);
        let qb = abstract_into(committed, &mut buf_b, &mut heap_b);
        let shape = CellShape::of(cell);
        let sig = signature(class, shape, qa, qb);
        let condition = self.find(class, shape, qa, qb);
        let answer =
            condition.and_then(|c| evaluate_condition(c, entry, cell, txn, committed, relax));
        self.stats.record(sig, answer.is_some());
        answer
    }
}

impl CommutativityCache {
    /// Consumes the trained cache into its immutable production form:
    /// hash-indexed buckets, lock-free statistics, allocation-free
    /// queries. Statistics accumulated before freezing are discarded —
    /// freeze at the train/production boundary, before measurement.
    pub fn freeze(self) -> FrozenCache {
        FrozenCache::from_cache(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{Element, Pattern};
    use janus_log::{LocId, OpKind, ScalarOp};

    fn mk_ops(kinds: Vec<OpKind>, class: &str) -> Vec<Op> {
        let mut v = Value::int(0);
        kinds
            .into_iter()
            .map(|k| Op::execute(LocId(0), ClassId::new(class), k, &mut v).0)
            .collect()
    }

    fn add_pattern_plus() -> Pattern {
        Pattern(vec![Element::Plus(vec![
            Element::Atom(AbstractOp::Add),
            Element::Atom(AbstractOp::Add),
        ])])
    }

    fn trained() -> FrozenCache {
        let mut cache = CommutativityCache::new(true);
        cache.insert(
            ClassId::new("work"),
            CellShape::Whole,
            add_pattern_plus(),
            add_pattern_plus(),
            Condition::CommutesAlways,
        );
        cache.freeze()
    }

    #[test]
    fn frozen_answers_match_mutable_cache() {
        let frozen = trained();
        assert_eq!(frozen.len(), 1);
        assert!(!frozen.is_empty());
        assert!(frozen.uses_abstraction());
        let a = mk_ops(
            vec![
                OpKind::Scalar(ScalarOp::Add(1)),
                OpKind::Scalar(ScalarOp::Add(-1)),
            ],
            "work",
        );
        let ra: Vec<&Op> = a.iter().collect();
        let answer = frozen.query(
            &ClassId::new("work"),
            None,
            &CellKey::Whole,
            &ra,
            &ra,
            Relaxation::strict(),
        );
        assert_eq!(answer, Some(false));
        assert_eq!(frozen.stats().unique_counts(), (1, 0));
        // The same abstract query again: totals grow, uniques do not.
        frozen
            .query(
                &ClassId::new("work"),
                None,
                &CellKey::Whole,
                &ra,
                &ra,
                Relaxation::strict(),
            )
            .unwrap();
        assert_eq!(frozen.stats().hits.load(Ordering::Relaxed), 2);
        assert_eq!(frozen.stats().unique_counts(), (1, 0));
        assert_eq!(frozen.stats().miss_rate_percent(), Some(0.0));
    }

    #[test]
    fn frozen_misses_unknown_classes() {
        let frozen = trained();
        let a = mk_ops(vec![OpKind::Scalar(ScalarOp::Read)], "other");
        let ra: Vec<&Op> = a.iter().collect();
        assert_eq!(
            frozen.query(
                &ClassId::new("other"),
                None,
                &CellKey::Whole,
                &ra,
                &ra,
                Relaxation::strict()
            ),
            None
        );
        assert_eq!(frozen.stats().unique_counts(), (0, 1));
        assert_eq!(frozen.stats().miss_rate_percent(), Some(100.0));
    }

    #[test]
    fn oversized_sequences_spill_and_still_answer() {
        let frozen = trained();
        let a = mk_ops(
            (0..(INLINE_OPS + 6))
                .map(|i| OpKind::Scalar(ScalarOp::Add(i as i64 % 3 - 1)))
                .collect(),
            "work",
        );
        let ra: Vec<&Op> = a.iter().collect();
        let answer = frozen.query(
            &ClassId::new("work"),
            None,
            &CellKey::Whole,
            &ra,
            &ra,
            Relaxation::strict(),
        );
        assert!(answer.is_some(), "spill path must reach the same entries");
    }

    #[test]
    fn frozen_signature_table_caps_and_overflows() {
        let stats = FrozenCacheStats::default();
        let extra = 10u64;
        for sig in 1..=(FrozenCacheStats::UNIQUE_SIG_CAP as u64 + extra) {
            stats.record(sig, false);
        }
        let (uh, um) = stats.unique_counts();
        assert_eq!((uh, um), (0, FrozenCacheStats::UNIQUE_SIG_CAP as u64));
        assert_eq!(stats.unique_overflow(), extra);
        // Re-recording a tracked signature is not overflow.
        stats.record(1, true);
        assert_eq!(stats.unique_overflow(), extra);
        assert_eq!(
            stats.unique_counts(),
            (0, FrozenCacheStats::UNIQUE_SIG_CAP as u64),
            "first outcome decides a signature's class"
        );
        stats.reset();
        assert_eq!(stats.unique_counts(), (0, 0));
        assert_eq!(stats.unique_overflow(), 0);
        // The table is reusable after reset.
        stats.record(7, true);
        assert_eq!(stats.unique_counts(), (1, 0));
    }

    #[test]
    fn zero_signature_is_remapped() {
        let stats = FrozenCacheStats::default();
        stats.record(0, true);
        stats.record(0, true);
        assert_eq!(stats.unique_counts(), (1, 0));
        assert_eq!(stats.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_recording_loses_no_totals() {
        use std::sync::Arc;
        let stats = Arc::new(FrozenCacheStats::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        // Half the signatures are shared across threads,
                        // half are thread-private.
                        let sig = if i % 2 == 0 { i } else { t * 1_000_000 + i };
                        stats.record(sig, i % 3 == 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = stats.hits.load(Ordering::Relaxed) + stats.misses.load(Ordering::Relaxed);
        assert_eq!(total, 4000);
        let (uh, um) = stats.unique_counts();
        // 500 shared + 4×500 private distinct signatures, minus the
        // sig=0 alias collapsing nothing here (0 is even → shared).
        assert_eq!(uh + um, 500 + 4 * 500);
        assert_eq!(stats.unique_overflow(), 0);
    }
}

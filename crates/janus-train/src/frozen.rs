//! The queryable commutativity cache.
//!
//! Training builds a [`CommutativityCache`]; freezing converts it into the
//! one structure that answers queries, offline or online, and whose query
//! path is entirely lock-free:
//!
//! * buckets move into a `HashMap<ClassId, _>` keyed by class, then
//!   indexed by cell shape, so a lookup is one hash probe with **no key
//!   clone**;
//! * hit/miss totals are plain atomic counters;
//! * the §7.1 *unique*-signature set is an open-addressed table of
//!   `AtomicU64` slots claimed by compare-and-swap — readers and writers
//!   never block, and the table is bounded (1 MiB) regardless of run
//!   length.
//!
//! Combined with the compact-NFA matcher and inline abstraction buffers,
//! a query performs **zero heap allocations** for transactions touching
//! ≤ [`INLINE_OPS`] operations per cell (the common case by a wide
//! margin), and acquires no mutex ever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use janus_detect::{Relaxation, SequenceOracle};
use janus_log::{splitmix64, CellKey, ClassId, Op};
use janus_relational::Value;

use crate::abstraction::{abstract_kind, AbstractOp};
use crate::cache::{CellShape, CommutativityCache, Entry};
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

/// Lock-free statistics of a [`FrozenCache`]: total and §7.1 *unique*
/// hits/misses — multiple hits or misses of the same abstract query
/// signature count once — recorded without any mutex. Unique signatures
/// live in a fixed open-addressed table of [`AtomicU64`] slots; a slot is
/// claimed exactly once by compare-and-swap, and the thread that wins the
/// claim attributes the signature's first outcome. Signatures that arrive
/// after [`UNIQUE_SIG_CAP`](FrozenCacheStats::UNIQUE_SIG_CAP) distinct
/// entries (or whose probe window is full) are counted in
/// [`unique_overflow`](FrozenCacheStats::unique_overflow); the Figure 11
/// unique-miss rate is exact whenever that counter is zero.
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
    /// unique-miss-rate metric.
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

    /// Resets all statistics. Not linearizable against concurrent
    /// `record` calls — call between measurement phases.
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

/// The queryable form of a trained [`CommutativityCache`]: hash-indexed
/// entry lookup, lock-free statistics, and a query path that allocates
/// nothing for ordinary transactions. Built once with
/// [`CommutativityCache::freeze`], then shared across worker threads
/// behind an `Arc`. Implements [`SequenceOracle`], so it plugs into
/// `janus_detect::CachedSequenceDetector`.
#[derive(Debug)]
pub struct FrozenCache {
    /// Per-class entry lists, indexed by [`CellShape`] so a query picks
    /// its shape without composing a hashed key.
    buckets: HashMap<ClassId, [Vec<Entry>; 2]>,
    use_abstraction: bool,
    entries: usize,
    stats: FrozenCacheStats,
}

impl FrozenCache {
    fn from_cache(cache: CommutativityCache) -> FrozenCache {
        let (tree, use_abstraction) = cache.into_parts();
        let mut frozen = FrozenCache {
            buckets: HashMap::new(),
            use_abstraction,
            entries: 0,
            stats: FrozenCacheStats::default(),
        };
        for (key, list) in tree {
            frozen.entries += list.len();
            frozen.buckets.entry(key.class).or_default()[key.shape as usize] = list;
        }
        frozen
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

    /// Adds a learned entry (the online learner's write path).
    pub(crate) fn insert(&mut self, class: ClassId, shape: CellShape, entry: Entry) {
        self.buckets.entry(class).or_default()[shape as usize].push(entry);
        self.entries += 1;
    }

    /// Whether some entry matches the query, without recording it.
    pub(crate) fn covers(
        &self,
        class: &ClassId,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
    ) -> bool {
        abstracted(txn, committed, |qa, qb| {
            self.find(class, CellShape::of(cell), qa, qb).is_some()
        })
    }

    fn find(
        &self,
        class: &ClassId,
        shape: CellShape,
        qa: &[AbstractOp],
        qb: &[AbstractOp],
    ) -> Option<Condition> {
        self.buckets.get(class)?[shape as usize]
            .iter()
            .find(|e| {
                (e.nfa_a.matches(qa) && e.nfa_b.matches(qb))
                    || (e.nfa_a.matches(qb) && e.nfa_b.matches(qa))
            })
            .map(|e| e.condition)
    }
}

/// Abstracts both query sides — each on the stack when it fits in
/// [`INLINE_OPS`], spilling to the heap otherwise — and hands them to `f`.
fn abstracted<R>(
    txn: &[&Op],
    committed: &[&Op],
    f: impl FnOnce(&[AbstractOp], &[AbstractOp]) -> R,
) -> R {
    fn side<'a>(
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
    let (mut buf_a, mut heap_a) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
    let (mut buf_b, mut heap_b) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
    f(
        side(txn, &mut buf_a, &mut heap_a),
        side(committed, &mut buf_b, &mut heap_b),
    )
}

/// Feeds `Display` output straight into a hasher, so signatures keep the
/// rendered-string identity of the abstract query without building a
/// string per query.
struct HashWriter<H>(H);

impl<H: std::hash::Hasher> std::fmt::Write for HashWriter<H> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// The 64-bit signature of one abstract query: class, shape, and the two
/// rendered operation streams in symmetric (order-independent) order.
fn signature(class: &ClassId, shape: CellShape, qa: &[AbstractOp], qb: &[AbstractOp]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write;
    use std::hash::Hasher;

    let side = |ops: &[AbstractOp]| {
        let mut w = HashWriter(DefaultHasher::new());
        for op in ops {
            let _ = write!(w, "{op}#");
        }
        w.0.finish()
    };
    let (sa, sb) = (side(qa), side(qb));
    let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
    let mut w = HashWriter(DefaultHasher::new());
    let _ = write!(w, "{class}#{shape:?}#");
    w.0.write_u64(lo);
    w.0.write_u64(hi);
    w.0.finish()
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
        let shape = CellShape::of(cell);
        let (sig, condition) = abstracted(txn, committed, |qa, qb| {
            (
                signature(class, shape, qa, qb),
                self.find(class, shape, qa, qb),
            )
        });
        let answer =
            condition.and_then(|c| evaluate_condition(c, entry, cell, txn, committed, relax));
        self.stats.record(sig, answer.is_some());
        answer
    }
}

impl CommutativityCache {
    /// Consumes the trained cache into its queryable form: hash-indexed
    /// buckets, lock-free statistics, allocation-free queries. Freeze at
    /// the train/production boundary, before measurement.
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
    fn insert_and_query_roundtrip() {
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
    }

    #[test]
    fn symmetric_matching() {
        let mut cache = CommutativityCache::new(true);
        // pat_a = read, pat_b = {aa}+ — inserted in one order, queried in
        // the other.
        cache.insert(
            ClassId::new("x"),
            CellShape::Whole,
            Pattern(vec![Element::Atom(AbstractOp::Read)]),
            add_pattern_plus(),
            Condition::InputDependent,
        );
        let frozen = cache.freeze();
        let reader = mk_ops(vec![OpKind::Scalar(ScalarOp::Read)], "x");
        let adder = mk_ops(
            vec![
                OpKind::Scalar(ScalarOp::Add(2)),
                OpKind::Scalar(ScalarOp::Add(-2)),
            ],
            "x",
        );
        let rr: Vec<&Op> = reader.iter().collect();
        let rad: Vec<&Op> = adder.iter().collect();
        let entry = Value::int(0);
        // (adder, reader) — reversed relative to insertion order.
        let ans = frozen.query(
            &ClassId::new("x"),
            Some(&entry),
            &CellKey::Whole,
            &rad,
            &rr,
            Relaxation::strict(),
        );
        assert_eq!(ans, Some(false), "identity delta does not disturb the read");
    }

    #[test]
    fn signature_is_symmetric() {
        let a = vec![AbstractOp::Add, AbstractOp::Read];
        let b = vec![AbstractOp::Add];
        let class = ClassId::new("x");
        assert_eq!(
            signature(&class, CellShape::Whole, &a, &b),
            signature(&class, CellShape::Whole, &b, &a)
        );
        assert_ne!(
            signature(&class, CellShape::Whole, &a, &b),
            signature(&class, CellShape::Keyed, &a, &b)
        );
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

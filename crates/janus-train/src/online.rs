//! Online training via memoization.
//!
//! §5.3 notes that JANUS "can be configured to perform the sequence-based
//! check online, which is unlikely to be acceptable in performance
//! (though memoization can be used to support online training)". This
//! module implements that configuration: an oracle that starts from an
//! empty (or pre-trained) cache, answers hits from it, and on a miss
//! evaluates the precise Figure 8 check *and memoizes the abstract pair*
//! by training's own rule, so every later query with the same shape takes
//! the cheap summary-based path. No offline phase is needed; the first
//! production run pays for its own training.

use std::sync::RwLock;

use janus_detect::{conflict_cell, Relaxation, SequenceOracle};
use janus_log::{CellKey, ClassId, Op};
use janus_relational::Value;

use crate::cache::{CellShape, CommutativityCache, Entry};
use crate::frozen::FrozenCache;
use crate::mine::Observation;

/// A [`SequenceOracle`] that learns during production (memoized online
/// training).
///
/// # Example
///
/// ```
/// use janus_detect::CachedSequenceDetector;
/// use janus_train::OnlineLearningCache;
///
/// let detector = CachedSequenceDetector::new(OnlineLearningCache::new(true));
/// # let _ = detector;
/// ```
#[derive(Debug)]
pub struct OnlineLearningCache {
    inner: RwLock<FrozenCache>,
}

impl OnlineLearningCache {
    /// Starts with an empty cache.
    pub fn new(use_abstraction: bool) -> Self {
        OnlineLearningCache::from_cache(CommutativityCache::new(use_abstraction))
    }

    /// Starts from an offline-trained cache and keeps learning.
    pub fn from_cache(cache: CommutativityCache) -> Self {
        OnlineLearningCache {
            inner: RwLock::new(cache.freeze()),
        }
    }

    /// Number of memoized entries so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock").len()
    }

    /// Whether nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unique (hits, misses) of the underlying cache — a miss here is a
    /// query that had to be evaluated online and triggered learning.
    pub fn unique_counts(&self) -> (u64, u64) {
        self.inner
            .read()
            .expect("cache lock")
            .stats()
            .unique_counts()
    }
}

impl SequenceOracle for OnlineLearningCache {
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool> {
        // Fast path: the memoized cache answers.
        let use_abstraction = {
            let cache = self.inner.read().expect("cache lock");
            if let Some(answer) = cache.query(class, entry, cell, txn, committed, relax) {
                return Some(answer);
            }
            cache.uses_abstraction()
        };
        // Miss: evaluate the precise check online (this needs the entry
        // state; without it we cannot learn or answer).
        let entry = entry?;
        let verdict = conflict_cell(entry, cell, txn, committed, relax);

        // Memoize the abstract pair by training's rule so the next query
        // with this shape takes the summary path — unless a concurrent
        // miss on the same shape got there first.
        let observed = Observation::new(entry, cell, txn, committed, use_abstraction);
        if let Some(condition) = observed.condition() {
            let mut cache = self.inner.write().expect("cache lock");
            if !cache.covers(class, cell, txn, committed) {
                cache.insert(
                    class.clone(),
                    CellShape::of(cell),
                    Entry::new(observed.pat_a, observed.pat_b, condition),
                );
            }
        }
        Some(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_detect::{CachedSequenceDetector, ConflictDetector, MapState};
    use janus_log::{LocId, OpKind, ScalarOp};

    fn mk_ops(kinds: Vec<OpKind>, entry: i64) -> Vec<Op> {
        let mut v = Value::int(entry);
        kinds
            .into_iter()
            .map(|k| Op::execute(LocId(0), ClassId::new("work"), k, &mut v).0)
            .collect()
    }

    fn add(d: i64) -> OpKind {
        OpKind::Scalar(ScalarOp::Add(d))
    }

    #[test]
    fn learns_on_first_miss_and_hits_after() {
        let oracle = OnlineLearningCache::new(true);
        let detector = CachedSequenceDetector::new(oracle);
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(0));

        let a = mk_ops(vec![add(2), add(-2)], 0);
        let b = mk_ops(vec![add(3), add(-3)], 0);
        assert!(!detector.detect_ops(&state, &a, &b));
        // The detector always gets an answer (the oracle self-trains)...
        let (_, _, hits, misses) = detector.stats().snapshot();
        assert_eq!((hits, misses), (1, 0));
        // ...but internally the first query was a learning miss.
        assert_eq!(detector.oracle().unique_counts(), (0, 1));
        assert_eq!(detector.oracle().len(), 1);

        // Different deltas and lengths, same shape: an internal hit now.
        let c = mk_ops(vec![add(5), add(-5), add(1), add(-1)], 0);
        assert!(!detector.detect_ops(&state, &a, &c));
        let (uh, _) = detector.oracle().unique_counts();
        assert!(uh >= 1, "second query must hit the memoized entry");
    }

    #[test]
    fn learned_entries_keep_input_dependence() {
        let oracle = OnlineLearningCache::new(true);
        let detector = CachedSequenceDetector::new(oracle);
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(0));

        let w = |v: i64| OpKind::Scalar(ScalarOp::Write(janus_relational::Scalar::Int(v)));
        let a = mk_ops(vec![w(5)], 0);
        let b_eq = mk_ops(vec![w(5)], 0);
        let b_ne = mk_ops(vec![w(6)], 0);
        // First query learns from the equal-writes instance...
        assert!(!detector.detect_ops(&state, &a, &b_eq));
        // ...but the memoized condition still rejects unequal writes.
        assert!(detector.detect_ops(&state, &a, &b_ne));
    }

    #[test]
    fn seeding_from_offline_cache() {
        let oracle = OnlineLearningCache::from_cache(CommutativityCache::new(true));
        assert!(oracle.is_empty());
        let mut state = MapState::default();
        state.0.insert(LocId(0), Value::int(0));
        let detector = CachedSequenceDetector::new(oracle);
        let a = mk_ops(vec![add(1)], 0);
        let _ = detector.detect_ops(&state, &a, &a);
        assert_eq!(detector.oracle().len(), 1);
    }

    #[test]
    fn concurrent_misses_on_one_shape_memoize_once() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let ops = mk_ops(vec![add(1)], 0);
        let entry = Value::int(0);
        for rep in 0..200 {
            let oracle = OnlineLearningCache::new(true);
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        let txn: Vec<&Op> = ops.iter().collect();
                        barrier.wait();
                        oracle.query(
                            &ClassId::new("work"),
                            Some(&entry),
                            &CellKey::Whole,
                            &txn,
                            &txn,
                            Relaxation::strict(),
                        )
                    });
                }
            });
            assert_eq!(oracle.len(), 1, "repetition {rep} memoized one shape twice");
        }
    }
}

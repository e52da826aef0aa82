//! The commutativity cache as training builds it and persistence
//! round-trips it (Figure 6). Queries go to its frozen form,
//! [`crate::FrozenCache`].

use std::collections::BTreeMap;

use janus_log::{CellKey, ClassId};

use crate::abstraction::{Nfa, Pattern};
use crate::condition::Condition;

/// The granularity of a cached cell: whole-object or per-key. The key
/// value itself is abstracted away — conditions are key-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellShape {
    /// A scalar location or whole relational object.
    Whole,
    /// One key of a relational object.
    Keyed,
}

impl CellShape {
    /// The shape of a concrete cell.
    pub fn of(cell: &CellKey) -> CellShape {
        match cell {
            CellKey::Whole => CellShape::Whole,
            CellKey::Key(_) => CellShape::Keyed,
        }
    }
}

/// The bucket key of the cache: a location class at a cell granularity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// The location class.
    pub class: ClassId,
    /// The cell granularity.
    pub shape: CellShape,
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) pat_a: Pattern,
    pub(crate) pat_b: Pattern,
    /// Precompiled matchers: queries run the NFA directly, so per-query
    /// matching is linear with no compilation cost.
    pub(crate) nfa_a: Nfa,
    pub(crate) nfa_b: Nfa,
    pub(crate) condition: Condition,
}

impl Entry {
    /// An entry for an unordered pattern pair: the patterns are stored in
    /// canonical order and their matchers compiled once.
    pub(crate) fn new(pat_a: Pattern, pat_b: Pattern, condition: Condition) -> Entry {
        let (pat_a, pat_b) = if pat_a <= pat_b {
            (pat_a, pat_b)
        } else {
            (pat_b, pat_a)
        };
        Entry {
            nfa_a: Nfa::compile(&pat_a),
            nfa_b: Nfa::compile(&pat_b),
            pat_a,
            pat_b,
            condition,
        }
    }
}

/// Summary of a training session.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrainReport {
    /// Candidate pairs mined from the dependence graphs.
    pub pairs_mined: u64,
    /// Distinct cache entries added.
    pub entries_added: u64,
    /// Pairs rejected because the condition evaluation disagreed with the
    /// exact online check on the training observation.
    pub pairs_rejected: u64,
    /// Relational pairs submitted to the SAT-backed symbolic verifier.
    pub symbolic_attempted: u64,
    /// Relational pairs proven universally commutative by the verifier.
    pub symbolic_proved: u64,
}

/// The commutativity cache built by [`crate::train`] and read back by
/// [`CommutativityCache::from_text`]. It answers no queries:
/// [`CommutativityCache::freeze`] turns it into the [`crate::FrozenCache`]
/// that `janus_detect::CachedSequenceDetector` queries.
#[derive(Debug, Default)]
pub struct CommutativityCache {
    buckets: BTreeMap<CacheKey, Vec<Entry>>,
    use_abstraction: bool,
}

impl CommutativityCache {
    /// An empty cache. `use_abstraction` controls whether production
    /// queries are matched against Kleene-cross patterns (it must match
    /// the setting used during training).
    pub fn new(use_abstraction: bool) -> Self {
        CommutativityCache {
            buckets: BTreeMap::new(),
            use_abstraction,
        }
    }

    /// Whether sequence abstraction is in force.
    pub fn uses_abstraction(&self) -> bool {
        self.use_abstraction
    }

    /// Adds an entry for a class/shape bucket.
    pub fn insert(
        &mut self,
        class: ClassId,
        shape: CellShape,
        pat_a: Pattern,
        pat_b: Pattern,
        condition: Condition,
    ) {
        self.buckets
            .entry(CacheKey { class, shape })
            .or_default()
            .push(Entry::new(pat_a, pat_b, condition));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the cached entries (for serialization and
    /// diagnostics).
    pub fn entries_iter(
        &self,
    ) -> impl Iterator<Item = (&ClassId, CellShape, &Pattern, &Pattern, Condition)> {
        self.buckets.iter().flat_map(|(key, entries)| {
            entries
                .iter()
                .map(move |e| (&key.class, key.shape, &e.pat_a, &e.pat_b, e.condition))
        })
    }

    /// Decomposes the cache for [`crate::FrozenCache`] construction.
    pub(crate) fn into_parts(self) -> (BTreeMap<CacheKey, Vec<Entry>>, bool) {
        (self.buckets, self.use_abstraction)
    }
}

//! Read/write footprints at key granularity (Table 3 and §5.1).
//!
//! The paper defines footprints over the *subvalue lattice*: for a
//! relational value the subvalues are sets of tuples ordered by inclusion.
//! Because every relation in JANUS carries at most one functional
//! dependency whose domain identifies tuples, footprints can be tracked at
//! the granularity of FD-domain *keys* — exactly the information the
//! write-set approach records, which is what lets sequence-based detection
//! run with "no instrumentation overhead beyond that of the write-set
//! approach" (§3).

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::Scalar;

/// The valuation of a relation's key columns, identifying one "cell" of a
/// relational object (e.g. the index of a bit in a `BitSet`, the key of a
/// `Map` entry). Like a [`crate::Tuple`], its components are shared, so
/// cloning a key is O(1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Arc<[Scalar]>);

impl Key {
    /// Creates a key from its component scalars (in key-column order).
    pub fn new(components: impl Into<Arc<[Scalar]>>) -> Self {
        Key(components.into())
    }

    /// A single-component key.
    pub fn scalar(s: impl Into<Scalar>) -> Self {
        Key(Arc::new([s.into()]))
    }

    /// The key's components.
    pub fn components(&self) -> &[Scalar] {
        &self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "⟩")
    }
}

/// A key compares, orders and hashes exactly like its components, so
/// keyed maps can be probed with a borrowed valuation.
impl Borrow<[Scalar]> for Key {
    fn borrow(&self) -> &[Scalar] {
        &self.0
    }
}

impl From<Vec<Scalar>> for Key {
    fn from(components: Vec<Scalar>) -> Self {
        Key::new(components)
    }
}

/// A set of accessed cells within one shared object: either every cell
/// (`All`, e.g. a `clear()` or an unconstrained select) or a finite set of
/// keys.
///
/// `All` is the conservative top element; overlap checks treat it as
/// intersecting everything. The constructors keep one canonical form per
/// set — no key is `Empty`, one key is `One`, more are `Keys` — so most
/// per-op footprints, which touch a single cell, allocate no set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CellSet {
    /// No cells.
    #[default]
    Empty,
    /// The one cell identified by this key.
    One(Key),
    /// The cells identified by these keys (at least two).
    Keys(BTreeSet<Key>),
    /// Every cell of the object (including absent ones — covers phantom
    /// reads by unconstrained selects).
    All,
}

impl CellSet {
    /// The empty cell set.
    pub fn empty() -> Self {
        CellSet::Empty
    }

    /// A singleton cell set.
    pub fn key(k: Key) -> Self {
        CellSet::One(k)
    }

    /// A cell set from an iterator of keys.
    pub fn keys(keys: impl IntoIterator<Item = Key>) -> Self {
        let mut s: BTreeSet<Key> = keys.into_iter().collect();
        match s.len() {
            0 => CellSet::Empty,
            1 => CellSet::One(s.pop_first().expect("one key")),
            _ => CellSet::Keys(s),
        }
    }

    /// Whether no cell is covered.
    pub fn is_empty(&self) -> bool {
        match self {
            CellSet::Empty => true,
            CellSet::Keys(s) => s.is_empty(),
            CellSet::One(_) | CellSet::All => false,
        }
    }

    /// Whether the two cell sets share at least one cell (the `⊓ ... ≠ ⊥`
    /// test of Equation 1).
    pub fn overlaps(&self, other: &CellSet) -> bool {
        match (self, other) {
            (CellSet::Empty, _) | (_, CellSet::Empty) => false,
            (CellSet::All, _) | (_, CellSet::All) => true,
            (CellSet::One(k), s) | (s, CellSet::One(k)) => s.covers(k),
            (CellSet::Keys(a), CellSet::Keys(b)) => {
                // Iterate the smaller set.
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().any(|k| large.contains(k))
            }
        }
    }

    /// Whether this cell set covers the given key.
    pub fn covers(&self, key: &Key) -> bool {
        match self {
            CellSet::Empty => false,
            CellSet::One(k) => k == key,
            CellSet::Keys(s) => s.contains(key),
            CellSet::All => true,
        }
    }

    /// Whether every cell of `self` is covered by `other`.
    pub fn subset_of(&self, other: &CellSet) -> bool {
        match (self, other) {
            (CellSet::Empty, _) => true,
            (_, CellSet::All) => true,
            (CellSet::All, _) => false,
            (CellSet::One(k), s) => s.covers(k),
            (CellSet::Keys(a), CellSet::Keys(b)) => a.is_subset(b),
            (CellSet::Keys(a), CellSet::One(k)) => a.iter().all(|x| x == k),
            (CellSet::Keys(a), CellSet::Empty) => a.is_empty(),
        }
    }

    /// The join (union) of two cell sets.
    pub fn union(&self, other: &CellSet) -> CellSet {
        match (self, other) {
            (CellSet::All, _) | (_, CellSet::All) => CellSet::All,
            (CellSet::Empty, s) | (s, CellSet::Empty) => s.clone(),
            (CellSet::One(a), CellSet::One(b)) if a == b => CellSet::One(a.clone()),
            _ => CellSet::Keys(self.iter().chain(other.iter()).cloned().collect()),
        }
    }

    /// Merges another cell set into this one in place.
    pub fn extend(&mut self, other: &CellSet) {
        *self = self.union(other);
    }

    /// The finite keys, in ascending order (none for `Empty` and `All`).
    pub fn iter(&self) -> impl Iterator<Item = &Key> {
        let (one, many) = match self {
            CellSet::One(k) => (Some(k), None),
            CellSet::Keys(s) => (None, Some(s.iter())),
            CellSet::Empty | CellSet::All => (None, None),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl fmt::Display for CellSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellSet::Empty => write!(f, "∅"),
            CellSet::All => write!(f, "⊤"),
            CellSet::One(_) | CellSet::Keys(_) => {
                write!(f, "{{")?;
                for (i, k) in self.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The read and write footprint of an operation restricted to one shared
/// object (§5.1 and Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Cells the operation reads (`op_s^r`).
    pub read: CellSet,
    /// Cells the operation writes (`op_s^w`).
    pub write: CellSet,
}

impl Footprint {
    /// A footprint that reads the given cells and writes nothing.
    pub fn read_only(read: CellSet) -> Self {
        Footprint {
            read,
            write: CellSet::Empty,
        }
    }

    /// A footprint that writes the given cells and reads nothing.
    pub fn write_only(write: CellSet) -> Self {
        Footprint {
            read: CellSet::Empty,
            write,
        }
    }

    /// Whether this operation writes at all.
    pub fn is_write(&self) -> bool {
        !self.write.is_empty()
    }

    /// The cells accessed either way (`op^w ∪ op^r`), i.e.
    /// `GETACCESSEDLOCATIONS` restricted to this object.
    pub fn accessed(&self) -> CellSet {
        self.read.union(&self.write)
    }

    /// Equation 1 instantiated for footprints: the two operations depend
    /// on each other iff they access a common subvalue, either for reading
    /// or for writing. (Input dependencies — read/read — are subsumed, as
    /// in the paper.)
    pub fn depends(&self, other: &Footprint) -> bool {
        self.accessed().overlaps(&other.accessed())
    }

    /// The cumulative footprint of a transformer: the union of its
    /// operations' footprints (§6.2).
    pub fn union(&self, other: &Footprint) -> Footprint {
        Footprint {
            read: self.read.union(&other.read),
            write: self.write.union(&other.write),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: i64) -> Key {
        Key::scalar(i)
    }

    #[test]
    fn overlap_rules() {
        let a = CellSet::keys([k(1), k(2)]);
        let b = CellSet::keys([k(2), k(3)]);
        let c = CellSet::keys([k(4)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(CellSet::All.overlaps(&a));
        assert!(!CellSet::All.overlaps(&CellSet::Empty));
        assert!(!CellSet::Empty.overlaps(&CellSet::Empty));
    }

    #[test]
    fn union_and_covers() {
        let a = CellSet::key(k(1));
        let b = CellSet::key(k(2));
        let u = a.union(&b);
        assert!(u.covers(&k(1)) && u.covers(&k(2)) && !u.covers(&k(3)));
        assert_eq!(a.union(&CellSet::All), CellSet::All);
        assert_eq!(a.union(&CellSet::Empty), a);
        assert!(CellSet::All.covers(&k(99)));
    }

    #[test]
    fn keys_of_empty_iterator_is_empty() {
        assert!(CellSet::keys(std::iter::empty()).is_empty());
        assert_eq!(CellSet::keys(std::iter::empty()), CellSet::Empty);
    }

    #[test]
    fn write_set_conflict_semantics() {
        let read1 = Footprint::read_only(CellSet::key(k(1)));
        let write1 = Footprint::write_only(CellSet::key(k(1)));
        let write2 = Footprint::write_only(CellSet::key(k(2)));
        // read/read: a dependency.
        assert!(read1.depends(&read1));
        // read/write on same cell: a dependency.
        assert!(read1.depends(&write1));
        // disjoint cells: nothing.
        assert!(!write1.depends(&write2));
    }

    #[test]
    fn footprint_union_accumulates() {
        let a = Footprint {
            read: CellSet::key(k(1)),
            write: CellSet::Empty,
        };
        let b = Footprint {
            read: CellSet::Empty,
            write: CellSet::key(k(2)),
        };
        let u = a.union(&b);
        assert!(u.read.covers(&k(1)));
        assert!(u.write.covers(&k(2)));
        assert!(u.is_write());
        assert!(!a.is_write());
    }

    #[test]
    fn accessed_joins_read_write() {
        let fp = Footprint {
            read: CellSet::key(k(1)),
            write: CellSet::key(k(2)),
        };
        let acc = fp.accessed();
        assert!(acc.covers(&k(1)) && acc.covers(&k(2)));
    }
}

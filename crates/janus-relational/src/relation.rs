//! Relations: sets of tuples over a shared schema, stored keyed.

use std::fmt;
use std::sync::Arc;

use janus_persist::PersistentMap;

use crate::{Formula, Key, Schema, Tuple};

/// A relation: a set of [`Tuple`]s over identical columns (§6.1).
///
/// A relation carries at most one functional dependency (§6), so no two
/// of its tuples share a key — the projection onto
/// [`Schema::key_columns`], which is the FD domain, or the whole tuple
/// when there is no FD. The tuples are therefore stored as a map from
/// key to tuple: [`Relation::insert`] maintains the FD by displacing the
/// tuple under the same key, and every keyed access is one map lookup.
///
/// The map is persistent, so cloning a relation — which happens on every
/// transaction privatization touching the object — is O(1), per §4's
/// "Versioning" prescription, and the private copy pays for each shared
/// path once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: PersistentMap<Key, Tuple>,
}

impl Relation {
    /// The empty relation over the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Relation {
            schema,
            tuples: PersistentMap::new(),
        }
    }

    /// Builds a relation from tuples.
    ///
    /// Tuples are inserted in order with FD maintenance, so later tuples
    /// displace earlier matching ones.
    pub fn from_tuples(schema: Arc<Schema>, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// The schema shared by all tuples of this relation.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether the relation contains exactly this tuple.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.get(&self.key_of(t)) == Some(t)
    }

    /// Whether some tuple has the given key.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.tuples.contains_key(key)
    }

    /// Tuple matching `t ~r t'` (§6.1): if the schema defines an FD, the
    /// tuples must agree on the FD's domain columns; otherwise they must
    /// agree on all columns.
    pub fn matches(&self, t: &Tuple, other: &Tuple) -> bool {
        t.agrees_on(other, self.schema.key_columns())
    }

    /// `insert r t`: removes the tuple matching `t`, then adds `t`
    /// (Table 2). Returns the displaced tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's arity does not match the schema.
    pub fn insert(&mut self, t: Tuple) -> Option<Tuple> {
        assert_eq!(
            t.arity(),
            self.schema.arity(),
            "tuple arity must match schema arity"
        );
        self.tuples.insert(self.key_of(&t), t)
    }

    /// `remove r t`: ensures `t` is not in the relation (Table 2).
    /// Returns whether the tuple was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let key = self.key_of(t);
        self.tuples.get(&key) == Some(t) && self.tuples.remove(&key).is_some()
    }

    /// Removes the tuple whose key columns equal `key`, returning it. This
    /// is the effect of `remove` addressed by key, used by ADT models
    /// (e.g. `Map::remove(k)`).
    pub fn remove_key(&mut self, key: &Key) -> Option<Tuple> {
        self.tuples.remove(key)
    }

    /// `w := select r f`: the tuples satisfying `f` (Table 2), in key
    /// order. The relation itself is unchanged. A selection that pins the
    /// key columns is one keyed lookup.
    pub fn select(&self, f: &Formula) -> Vec<Tuple> {
        match f.pinned_valuation(self.schema.key_columns()) {
            Some(vals) => self
                .tuples
                .get(vals.as_slice())
                .filter(|t| f.sat(t))
                .cloned()
                .into_iter()
                .collect(),
            None => self.iter().filter(|t| f.sat(t)).cloned().collect(),
        }
    }

    /// Looks up the unique tuple with the given key valuation (projection
    /// onto the schema's key columns), if any.
    pub fn lookup(&self, key: &Key) -> Option<Tuple> {
        self.tuples.get(key).cloned()
    }

    /// The key of a tuple: its projection onto the schema's key columns.
    pub fn key_of(&self, t: &Tuple) -> Key {
        t.key(self.schema.key_columns())
    }

    /// Iterates over the tuples in key order — canonical (sorted) tuple
    /// order whenever the key columns are a prefix of the columns, as
    /// they are without an FD.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.values()
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        self.tuples = PersistentMap::new();
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Fd, Scalar};

    fn bitset_schema() -> Arc<Schema> {
        Schema::with_fd(&["index", "bit"], Fd::new(&[0], &[1]))
    }

    #[test]
    fn insert_displaces_matching_tuples() {
        let mut r = Relation::empty(bitset_schema());
        assert_eq!(r.insert(tuple![3, false]), None);
        let displaced = r.insert(tuple![3, true]);
        assert_eq!(displaced, Some(tuple![3, false]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![3, true]));
    }

    #[test]
    fn insert_without_fd_matches_whole_tuple() {
        let mut r = Relation::empty(Schema::new(&["a", "b"]));
        r.insert(tuple![1, 2]);
        let displaced = r.insert(tuple![1, 3]);
        assert_eq!(displaced, None, "different tuples do not match");
        assert_eq!(r.len(), 2);
        let displaced = r.insert(tuple![1, 2]);
        assert_eq!(displaced, Some(tuple![1, 2]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![1, true]);
        assert!(r.remove(&tuple![1, true]));
        assert!(!r.remove(&tuple![1, true]));
        assert!(r.is_empty());
    }

    #[test]
    fn remove_key_removes_by_domain() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![1, true]);
        r.insert(tuple![2, false]);
        let removed = r.remove_key(&Key::new(vec![Scalar::Int(1)]));
        assert_eq!(removed, Some(tuple![1, true]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_filters_by_formula() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![1, true]);
        r.insert(tuple![2, false]);
        r.insert(tuple![3, true]);
        let sel = r.select(&Formula::eq(1, true));
        assert_eq!(sel.len(), 2);
        let sel = r.select(&Formula::eq(0, 2i64));
        assert_eq!(sel, vec![tuple![2, false]]);
    }

    #[test]
    fn lookup_by_key() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![7, true]);
        let k = Key::new(vec![Scalar::Int(7)]);
        assert_eq!(r.lookup(&k), Some(tuple![7, true]));
        assert_eq!(r.lookup(&Key::new(vec![Scalar::Int(8)])), None);
        assert_eq!(r.key_of(&tuple![7, true]), k);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![1]);
    }

    #[test]
    fn clear_empties() {
        let mut r = Relation::empty(bitset_schema());
        r.insert(tuple![1, true]);
        r.clear();
        assert!(r.is_empty());
    }
}

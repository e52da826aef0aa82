//! Primitive relational operations and their footprints (Tables 2 & 3).

use std::fmt;

use crate::{CellSet, Footprint, Formula, Key, Relation, Tuple};

/// A primitive relational operation (Table 2).
///
/// State transformers — both concrete and abstract — are expressed as
/// sequences over these primitives (§6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelOp {
    /// `insert r t`: `r' = (r \ {t' : t ~r t'}) ∪ {t}`.
    Insert(Tuple),
    /// `remove r t`: `r' = r \ {t}`.
    Remove(Tuple),
    /// Removes every tuple whose key equals the given key (the keyed form
    /// of `remove` used by ADT models such as `Map::remove(k)`).
    RemoveKey(Key),
    /// `w := select r f`: `r' = r`, `w = {t ∈ r : t |= f}`.
    Select(Formula),
    /// Replaces the whole relation with the empty relation (`clear()`);
    /// a blind whole-object write.
    Clear,
}

impl RelOp {
    /// Convenience constructor for [`RelOp::Insert`].
    pub fn insert(t: Tuple) -> Self {
        RelOp::Insert(t)
    }

    /// Convenience constructor for [`RelOp::Remove`].
    pub fn remove(t: Tuple) -> Self {
        RelOp::Remove(t)
    }

    /// Convenience constructor for [`RelOp::Select`].
    pub fn select(f: Formula) -> Self {
        RelOp::Select(f)
    }

    /// Whether the operation can modify the relation.
    pub fn is_mutation(&self) -> bool {
        !matches!(self, RelOp::Select(_))
    }

    /// Applies this operation to `r` in place, returning the tuples it
    /// removed (for mutations) — useful to callers that need the
    /// displacement information.
    pub fn apply(&self, r: &mut Relation) -> Vec<Tuple> {
        match self {
            RelOp::Insert(t) => r.insert(t.clone()).into_iter().collect(),
            RelOp::Remove(t) => {
                if r.remove(t) {
                    vec![t.clone()]
                } else {
                    Vec::new()
                }
            }
            RelOp::RemoveKey(k) => r.remove_key(k).into_iter().collect(),
            RelOp::Select(_) => Vec::new(),
            RelOp::Clear => {
                let all: Vec<Tuple> = r.iter().cloned().collect();
                r.clear();
                all
            }
        }
    }

    /// Evaluates the operation's *result* against `r` without modifying it:
    /// the selected tuples for a select, the empty list otherwise.
    pub fn eval(&self, r: &Relation) -> Vec<Tuple> {
        match self {
            RelOp::Select(f) => r.select(f),
            _ => Vec::new(),
        }
    }

    /// The footprint of this operation when applied to relation `r`
    /// (Table 3), at key granularity.
    ///
    /// Following §6.2, for sound dependence tracking `remove r t` *reads*
    /// `t`'s cell when `r` does not contain `t` (the removal's observable
    /// no-op depends on the absence). Selects read the cells their formula
    /// pins; a select whose formula does not pin the key columns reads the
    /// whole object (it can observe the presence or absence of any tuple —
    /// this covers phantoms).
    pub fn footprint(&self, r: &Relation) -> Footprint {
        match self {
            RelOp::Insert(t) => Footprint::write_only(CellSet::key(r.key_of(t))),
            RelOp::Remove(t) => {
                let cell = CellSet::key(r.key_of(t));
                if r.contains(t) {
                    Footprint::write_only(cell)
                } else {
                    // Sound tracking of a no-op removal: it reads the
                    // (absent) tuple's cell.
                    Footprint::read_only(cell)
                }
            }
            RelOp::RemoveKey(k) => {
                let cell = CellSet::key(k.clone());
                if r.contains_key(k) {
                    Footprint::write_only(cell)
                } else {
                    Footprint::read_only(cell)
                }
            }
            RelOp::Select(f) => match f.pinned_valuation(r.schema().key_columns()) {
                Some(vals) => Footprint::read_only(CellSet::key(Key::new(vals))),
                None => Footprint::read_only(CellSet::All),
            },
            RelOp::Clear => Footprint::write_only(CellSet::All),
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelOp::Insert(t) => write!(f, "insert {t}"),
            RelOp::Remove(t) => write!(f, "remove {t}"),
            RelOp::RemoveKey(k) => write!(f, "remove-key {k}"),
            RelOp::Select(fm) => write!(f, "select {fm}"),
            RelOp::Clear => write!(f, "clear"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Fd, Scalar, Schema};
    use std::sync::Arc;

    fn map_schema() -> Arc<Schema> {
        Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]))
    }

    #[test]
    fn insert_footprint_is_key_write() {
        let r = Relation::empty(map_schema());
        let fp = RelOp::insert(tuple![1, 10]).footprint(&r);
        assert!(fp.write.covers(&Key::scalar(1i64)));
        assert!(fp.read.is_empty());
    }

    #[test]
    fn remove_of_absent_tuple_reads() {
        let mut r = Relation::empty(map_schema());
        let op = RelOp::remove(tuple![1, 10]);
        // Absent: reads the cell.
        let fp = op.footprint(&r);
        assert!(!fp.is_write());
        assert!(fp.read.covers(&Key::scalar(1i64)));
        // Present: writes the cell.
        r.insert(tuple![1, 10]);
        let fp = op.footprint(&r);
        assert!(fp.is_write());
    }

    #[test]
    fn remove_key_footprint_mirrors_remove() {
        let mut r = Relation::empty(map_schema());
        let op = RelOp::RemoveKey(Key::scalar(5i64));
        assert!(!op.footprint(&r).is_write());
        r.insert(tuple![5, 50]);
        assert!(op.footprint(&r).is_write());
        let mut r2 = r.clone();
        assert_eq!(op.apply(&mut r2), vec![tuple![5, 50]]);
        assert!(r2.is_empty());
    }

    #[test]
    fn pinned_select_reads_one_cell() {
        let r = Relation::empty(map_schema());
        let fp = RelOp::select(Formula::eq(0, 3i64)).footprint(&r);
        assert_eq!(fp.read, CellSet::key(Key::scalar(3i64)));
    }

    #[test]
    fn unpinned_select_reads_all() {
        let r = Relation::empty(map_schema());
        // Constrains the range column only: cannot pin the key.
        let fp = RelOp::select(Formula::eq(1, 3i64)).footprint(&r);
        assert_eq!(fp.read, CellSet::All);
    }

    #[test]
    fn clear_writes_all() {
        let mut r = Relation::empty(map_schema());
        r.insert(tuple![1, 1]);
        r.insert(tuple![2, 2]);
        let op = RelOp::Clear;
        assert_eq!(op.footprint(&r).write, CellSet::All);
        let removed = op.apply(&mut r);
        assert_eq!(removed.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn select_eval_does_not_mutate() {
        let mut r = Relation::empty(map_schema());
        r.insert(tuple![1, 10]);
        let op = RelOp::select(Formula::eq(0, 1i64));
        let before = r.clone();
        let result = op.eval(&r);
        assert_eq!(result, vec![tuple![1, 10]]);
        assert_eq!(r, before);
    }

    #[test]
    fn apply_reports_displacement() {
        let mut r = Relation::empty(map_schema());
        RelOp::insert(tuple![1, 10]).apply(&mut r);
        let displaced = RelOp::insert(tuple![1, 20]).apply(&mut r);
        assert_eq!(displaced, vec![tuple![1, 10]]);
        assert_eq!(r.lookup(&Key::scalar(1i64)), Some(tuple![1, 20]));
    }

    #[test]
    fn mutation_classification() {
        assert!(RelOp::insert(tuple![1, 1]).is_mutation());
        assert!(RelOp::Clear.is_mutation());
        assert!(!RelOp::select(Formula::True).is_mutation());
    }

    #[test]
    fn no_fd_select_key_is_whole_tuple() {
        let schema = Schema::new(&["a", "b"]);
        let r = Relation::from_tuples(Arc::clone(&schema), [tuple![1, 2], tuple![1, 3]]);
        // Pinning both columns yields a one-cell read.
        let f = Formula::tuple_eq(&[0, 1], &[Scalar::Int(1), Scalar::Int(2)]);
        let fp = RelOp::select(f).footprint(&r);
        assert_eq!(
            fp.read,
            CellSet::key(Key::new(vec![Scalar::Int(1), Scalar::Int(2)]))
        );
        // Pinning only one column of a two-column key reads all.
        let fp = RelOp::select(Formula::eq(0, 1i64)).footprint(&r);
        assert_eq!(fp.read, CellSet::All);
    }
}

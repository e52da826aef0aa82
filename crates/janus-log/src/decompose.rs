//! `DECOMPOSE` (Figure 8): splitting a history into per-location
//! dependent operation subsequences.
//!
//! For every shared location accessed by a history, the decomposition
//! collects the subsequence of operations touching it, preserving program
//! order. Within a relational object, operations with key-granular
//! footprints are further split per key — two transactions inserting
//! under different map keys never meet in a conflict query, mirroring how
//! the paper's location-centric subsequences treat distinct memory words.
//! Operations with whole-object footprints (`clear`, unconstrained
//! selects) force the object back to whole-granularity comparison.

use std::collections::BTreeMap;

use janus_relational::{CellSet, Key};

use crate::{ClassId, LocId, Op};

/// Which slice of a shared object a subsequence ranges over.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellKey {
    /// The whole object (scalars; relational objects with whole-object
    /// accesses in play).
    Whole,
    /// One key of a relational object.
    Key(Key),
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellKey::Whole => write!(f, "*"),
            CellKey::Key(k) => write!(f, "{k}"),
        }
    }
}

/// The decomposition of one history restricted to one location.
#[derive(Debug, Clone)]
pub struct LocHistory<'a> {
    /// The location's static class.
    pub class: ClassId,
    /// Every operation on this location, in history order.
    pub ops: Vec<&'a Op>,
    /// Whether any operation has a whole-object footprint (scalar ops
    /// always do).
    pub has_whole: bool,
    /// Key-granular subsequences (operations whose footprints pin keys),
    /// in history order per key.
    pub per_key: BTreeMap<Key, Vec<&'a Op>>,
}

impl<'a> LocHistory<'a> {
    fn new(class: ClassId) -> Self {
        LocHistory {
            class,
            ops: Vec::new(),
            has_whole: false,
            per_key: BTreeMap::new(),
        }
    }

    /// Whether any operation in the subsequence writes.
    pub fn writes(&self) -> bool {
        self.ops.iter().any(|op| op.is_write())
    }
}

/// Decomposes a history into per-location subsequences (`DECOMPOSE` of
/// Figure 8). Only the footprints recorded in each [`Op`] are consulted —
/// the same information the write-set approach tracks.
pub fn decompose<'a>(ops: impl IntoIterator<Item = &'a Op>) -> BTreeMap<LocId, LocHistory<'a>> {
    let mut map: BTreeMap<LocId, LocHistory<'a>> = BTreeMap::new();
    for op in ops {
        let entry = map
            .entry(op.loc)
            .or_insert_with(|| LocHistory::new(op.class.clone()));
        entry.ops.push(op);
        let accessed = op.footprint.accessed();
        match accessed {
            CellSet::All => entry.has_whole = true,
            CellSet::One(_) | CellSet::Keys(_) => {
                for k in accessed.iter() {
                    entry.per_key.entry(k.clone()).or_default().push(op);
                }
            }
            CellSet::Empty => {}
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, ScalarOp};
    use janus_relational::{tuple, Fd, Formula, RelOp, Relation, Scalar, Schema, Value};

    fn scalar_op(loc: u64, kind: ScalarOp, v: &mut Value) -> Op {
        Op::execute(
            LocId(loc),
            ClassId::new(format!("c{loc}")),
            OpKind::Scalar(kind),
            v,
        )
        .0
    }

    #[test]
    fn groups_by_location_in_order() {
        let mut a = Value::int(0);
        let mut b = Value::int(0);
        let ops = vec![
            scalar_op(1, ScalarOp::Add(1), &mut a),
            scalar_op(2, ScalarOp::Write(Scalar::Int(5)), &mut b),
            scalar_op(1, ScalarOp::Add(-1), &mut a),
            scalar_op(2, ScalarOp::Read, &mut b),
        ];
        let d = decompose(&ops);
        assert_eq!(d.len(), 2);
        let l1 = &d[&LocId(1)];
        assert_eq!(l1.ops.len(), 2);
        assert!(l1.has_whole, "scalar ops are whole-object");
        assert!(l1.writes());
        let l2 = &d[&LocId(2)];
        assert_eq!(l2.ops.len(), 2);
        assert_eq!(
            l2.ops[0].kind,
            OpKind::Scalar(ScalarOp::Write(Scalar::Int(5)))
        );
    }

    #[test]
    fn relational_ops_split_per_key() {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut v = Value::Rel(Relation::empty(schema));
        let (l, c) = (LocId(7), ClassId::new("map"));
        let mut ops = Vec::new();
        for kind in [
            OpKind::Rel(RelOp::insert(tuple![1, 10])),
            OpKind::Rel(RelOp::insert(tuple![2, 20])),
            OpKind::Rel(RelOp::select(Formula::eq(0, 1i64))),
        ] {
            ops.push(Op::execute(l, c.clone(), kind, &mut v).0);
        }
        let d = decompose(&ops);
        let h = &d[&l];
        assert!(!h.has_whole);
        assert_eq!(h.per_key.len(), 2);
        let k1 = Key::scalar(1i64);
        assert_eq!(h.per_key[&k1].len(), 2, "insert + select on key 1");
        assert_eq!(h.ops.len(), 3);
    }

    #[test]
    fn clear_forces_whole_granularity() {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let mut v = Value::Rel(Relation::empty(schema));
        let (l, c) = (LocId(3), ClassId::new("bitset"));
        let ops = vec![
            Op::execute(
                l,
                c.clone(),
                OpKind::Rel(RelOp::insert(tuple![1, true])),
                &mut v,
            )
            .0,
            Op::execute(l, c, OpKind::Rel(RelOp::Clear), &mut v).0,
        ];
        let d = decompose(&ops);
        assert!(d[&l].has_whole);
    }

    #[test]
    fn empty_history() {
        let d = decompose(std::iter::empty());
        assert!(d.is_empty());
    }

    #[test]
    fn read_only_history_does_not_write() {
        let mut v = Value::int(1);
        let ops = vec![
            scalar_op(1, ScalarOp::Read, &mut v),
            scalar_op(1, ScalarOp::Read, &mut v),
        ];
        let d = decompose(&ops);
        assert!(!d[&LocId(1)].writes());
    }
}

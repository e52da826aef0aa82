//! The transaction-local view of the shared state.

use std::sync::Arc;

use janus_log::{Op, OpKind, OpResult, ScalarOp};
use janus_persist::PersistentMap;
use janus_relational::{RelOp, Scalar, Value};

use crate::store::{Slot, SnapshotSlots};
use janus_log::LocId;

/// A transaction's window onto the shared state: the privatized copy it
/// executes against (`t.SharedPrivatized`), plus the operation log
/// (`t.Log`) that conflict detection and commit-time replay consume.
///
/// Every access goes through an explicit method; this is the Rust
/// equivalent of the bytecode instrumentation hooks the Java prototype
/// injects (the substitution is documented in DESIGN.md).
#[derive(Debug)]
pub struct TxView {
    /// The snapshot taken at transaction begin (never mutated): one map
    /// for sequential paths, the per-shard maps for the sharded runtime.
    snapshot: SnapshotSlots,
    /// Privatized slots, copied from the snapshot on first touch and then
    /// mutated in place — a write buffer over the O(1) snapshot.
    overlay: std::collections::HashMap<LocId, Slot>,
    pub(crate) log: Vec<Op>,
}

impl TxView {
    pub(crate) fn new(snapshot: PersistentMap<LocId, Slot>) -> Self {
        TxView {
            snapshot: SnapshotSlots::Single(snapshot),
            overlay: std::collections::HashMap::new(),
            log: Vec::new(),
        }
    }

    /// A view over the sharded runtime's per-shard snapshot maps.
    pub(crate) fn new_sharded(maps: Arc<[PersistentMap<LocId, Slot>]>) -> Self {
        TxView {
            snapshot: SnapshotSlots::Sharded(maps),
            overlay: std::collections::HashMap::new(),
            log: Vec::new(),
        }
    }

    fn apply(&mut self, loc: LocId, kind: OpKind) -> OpResult {
        let slot = match self.overlay.entry(loc) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let from_snapshot = self
                    .snapshot
                    .get(&loc)
                    .unwrap_or_else(|| panic!("access to unallocated location {loc}"))
                    .clone();
                e.insert(from_snapshot)
            }
        };
        let (op, result) = Op::execute(loc, slot.class.clone(), kind, &mut slot.value);
        self.log.push(op);
        result
    }

    /// Folds the privatized slots back into a full state map (used by the
    /// sequential executor between tasks, which always runs over a
    /// single-map snapshot — the sharded runtime replays logs at commit
    /// instead of folding views).
    pub(crate) fn into_state(self) -> PersistentMap<LocId, Slot> {
        let SnapshotSlots::Single(mut slots) = self.snapshot else {
            unreachable!("into_state is only driven by single-map executors")
        };
        for (loc, slot) in self.overlay {
            slots.insert(loc, slot);
        }
        slots
    }

    /// Reads a scalar location.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is unallocated or holds a relational value.
    pub fn read(&mut self, loc: LocId) -> Scalar {
        match self.apply(loc, OpKind::Scalar(ScalarOp::Read)) {
            OpResult::Scalar(s) => s,
            _ => unreachable!("scalar read returns a scalar"),
        }
    }

    /// Reads an integer location.
    ///
    /// # Panics
    ///
    /// Panics if the location does not hold an integer.
    pub fn read_int(&mut self, loc: LocId) -> i64 {
        self.read(loc).as_int().expect("location holds an integer")
    }

    /// Blind-writes a scalar location.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is unallocated.
    pub fn write(&mut self, loc: LocId, value: impl Into<Scalar>) {
        self.apply(loc, OpKind::Scalar(ScalarOp::Write(value.into())));
    }

    /// Adds a delta to an integer location without observing the result
    /// (a blind fetch-add — the `work += weightOf(item)` of Figure 1).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is unallocated or does not hold an integer.
    pub fn add(&mut self, loc: LocId, delta: i64) {
        self.apply(loc, OpKind::Scalar(ScalarOp::Add(delta)));
    }

    /// Raises an integer location to at least `bound` without observing
    /// the result — the semantic lifting of `if (v > loc) loc = v`.
    /// Blind max-updates commute with each other, so concurrent
    /// transactions maintaining a running maximum never conflict.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is unallocated or does not hold an integer.
    pub fn max_with(&mut self, loc: LocId, bound: i64) {
        self.apply(loc, OpKind::Scalar(ScalarOp::Max(bound)));
    }

    /// Applies a primitive relational operation to an ADT location,
    /// returning its result. This is the hook the `janus-adt` abstraction
    /// specifications are built on.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is unallocated or holds a scalar value.
    pub fn rel(&mut self, loc: LocId, op: RelOp) -> OpResult {
        self.apply(loc, OpKind::Rel(op))
    }

    /// The operations logged so far (`t.Log`).
    pub fn log(&self) -> &[Op] {
        &self.log
    }

    /// Consumes the view, returning its operation log (for externally
    /// driven commit protocols).
    pub fn into_log(self) -> Vec<Op> {
        self.log
    }

    /// The current (privatized) value of a location, without logging an
    /// access. Intended for assertions and debugging only — production
    /// code must go through the logged accessors, or conflicts will be
    /// missed.
    pub fn peek(&self, loc: LocId) -> Option<&Value> {
        self.overlay
            .get(&loc)
            .or_else(|| self.snapshot.get(&loc))
            .map(|s| &s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use janus_relational::{tuple, Fd, Formula, Relation, Schema};

    fn view_with(classes: &[(&str, Value)]) -> (TxView, Vec<LocId>) {
        let mut store = Store::new();
        let locs = classes
            .iter()
            .map(|(c, v)| store.alloc(*c, v.clone()))
            .collect();
        (TxView::new(store.slots.clone()), locs)
    }

    #[test]
    fn scalar_roundtrip_and_logging() {
        let (mut tx, locs) = view_with(&[("x", Value::int(10))]);
        let x = locs[0];
        assert_eq!(tx.read_int(x), 10);
        tx.add(x, 5);
        assert_eq!(tx.read_int(x), 15);
        tx.write(x, 100i64);
        assert_eq!(tx.read_int(x), 100);
        assert_eq!(tx.log().len(), 5);
        assert_eq!(tx.peek(x), Some(&Value::int(100)));
    }

    #[test]
    fn relational_access() {
        let schema = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        let (mut tx, locs) = view_with(&[("m", Value::Rel(Relation::empty(schema)))]);
        let m = locs[0];
        tx.rel(m, RelOp::insert(tuple![1, 10]));
        let res = tx.rel(m, RelOp::select(Formula::eq(0, 1i64)));
        assert_eq!(res, OpResult::Tuples(vec![tuple![1, 10]]));
        assert_eq!(tx.log().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_access_panics() {
        let (mut tx, _) = view_with(&[]);
        tx.read(LocId(99));
    }
}

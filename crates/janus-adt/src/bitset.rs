//! The `BitSet` abstraction specification (§3 stage 1, Figure 3).

use std::sync::Arc;

use janus_core::{Store, TxView};
use janus_log::{LocId, OpResult};
use janus_relational::Relation;
use janus_relational::{Fd, Formula, RelOp, Scalar, Schema, Tuple, Value};

/// A shared bit set encoded as the 2-ary relation `{(index, bit)}` with
/// the functional dependency `index → bit`.
///
/// `get` is a select query pinned on the index; `set` is an insert (which
/// displaces the previous tuple for the index); `clear` replaces the
/// whole relation with the empty one — a blind whole-object write, so a
/// cleared-then-used bit set is shared-as-local (JGraphT's `usedColors`).
#[derive(Debug, Clone)]
pub struct BitSetAdt {
    loc: LocId,
    schema: Arc<Schema>,
}

impl BitSetAdt {
    /// Allocates an empty bit set.
    pub fn alloc(store: &mut Store, class: &str) -> Self {
        let schema = Schema::with_fd(&["index", "bit"], Fd::new(&[0], &[1]));
        let loc = store.alloc(class, Value::Rel(Relation::empty(Arc::clone(&schema))));
        BitSetAdt { loc, schema }
    }

    /// The underlying location.
    pub fn loc(&self) -> LocId {
        self.loc
    }

    /// Sets the bit at `index` to `value`.
    pub fn set(&self, tx: &mut TxView, index: i64, value: bool) {
        tx.rel(
            self.loc,
            RelOp::insert(Tuple::new(vec![Scalar::Int(index), Scalar::Bool(value)])),
        );
    }

    /// Whether the bit at `index` is set (absent indices read as false).
    pub fn get(&self, tx: &mut TxView, index: i64) -> bool {
        match tx.rel(self.loc, RelOp::select(Formula::eq(0, index))) {
            OpResult::Tuples(ts) => ts.first().and_then(|t| t.get(1).as_bool()).unwrap_or(false),
            _ => false,
        }
    }

    /// Clears every bit.
    pub fn clear(&self, tx: &mut TxView) {
        tx.rel(self.loc, RelOp::Clear);
    }

    /// The schema (exposed for tests and specs).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::{Janus, Task};

    #[test]
    fn set_get_clear() {
        let mut store = Store::new();
        let bits = BitSetAdt::alloc(&mut store, "usedColors");
        let b = bits.clone();
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            assert!(!b.get(tx, 3));
            b.set(tx, 3, true);
            assert!(b.get(tx, 3));
            b.set(tx, 3, false);
            assert!(!b.get(tx, 3));
            b.set(tx, 5, true);
            b.clear(tx);
            assert!(!b.get(tx, 5));
            b.set(tx, 7, true);
        })];
        let (final_store, _) = Janus::run_sequential(store, &tasks);
        let stored = final_store
            .value(bits.loc)
            .and_then(Value::as_rel)
            .map(Relation::len);
        assert_eq!(stored, Some(1), "clear left one explicitly stored bit");
    }

    #[test]
    fn clear_then_use_is_unexposed() {
        // The shared-as-local discipline: clear first, then set/get.
        let mut store = Store::new();
        let bits = BitSetAdt::alloc(&mut store, "usedColors");
        let b = bits.clone();
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            b.clear(tx);
            b.set(tx, 1, true);
            let _ = b.get(tx, 1);
            let _ = b.get(tx, 2);
        })];
        let (_, run) = Janus::run_sequential(store, &tasks);
        // Under a whole-object view, every observation is covered by the
        // leading clear.
        let ops: Vec<&janus_log::Op> = run.task_logs[0].iter().collect();
        let summary = janus_train::summarize(&janus_log::CellKey::Whole, &ops);
        assert!(!summary.exposed);
        assert!(summary.determined.is_const());
    }
}

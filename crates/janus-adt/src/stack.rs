//! The stack-discipline list of JFileSync's progress monitor (Figure 2).

use std::sync::Arc;

use janus_core::{Store, TxView};
use janus_log::{LocId, OpResult};
use janus_relational::{Fd, Formula, Key, RelOp, Relation, Scalar, Schema, Tuple, Value};

/// A shared list used as a stack: `monitor.itemsStarted.add(x)` pushes,
/// `remove(size()-1)` pops.
///
/// Encoded as the relation `{(index, value)}` with `index → value`, plus
/// a scalar `size` cell. A balanced push/pop pair is the *identity*
/// pattern on both locations: the size cell sees `read; write(s+1); ...;
/// read; write(s)` (equal writes against any concurrent balanced task),
/// and each index cell sees `insert; remove-key` (constant-absent).
#[derive(Debug, Clone)]
pub struct StackList {
    items: LocId,
    size: LocId,
    schema: Arc<Schema>,
}

impl StackList {
    /// Allocates an empty stack list. Two locations are created:
    /// `<class>.items` and `<class>.size`.
    pub fn alloc(store: &mut Store, class: &str) -> Self {
        let schema = Schema::with_fd(&["index", "value"], Fd::new(&[0], &[1]));
        let items = store.alloc(
            format!("{class}.items").as_str(),
            Value::Rel(Relation::empty(Arc::clone(&schema))),
        );
        let size = store.alloc(format!("{class}.size").as_str(), Value::int(0));
        StackList {
            items,
            size,
            schema,
        }
    }

    /// The current number of elements (observing).
    pub fn size(&self, tx: &mut TxView) -> i64 {
        tx.read_int(self.size)
    }

    /// Pushes a value (`add`).
    pub fn push(&self, tx: &mut TxView, value: impl Into<Scalar>) {
        let s = tx.read_int(self.size);
        tx.rel(
            self.items,
            RelOp::insert(Tuple::new(vec![Scalar::Int(s), value.into()])),
        );
        tx.write(self.size, s + 1);
    }

    /// Pops the last value (`remove(size()-1)`), returning it.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop(&self, tx: &mut TxView) -> Scalar {
        let s = tx.read_int(self.size);
        assert!(s > 0, "pop from empty stack list");
        let top = s - 1;
        let value = match tx.rel(self.items, RelOp::select(Formula::eq(0, top))) {
            OpResult::Tuples(ts) => ts
                .first()
                .map(|t| t.get(1).clone())
                .expect("top of stack exists"),
            _ => unreachable!("select returns tuples"),
        };
        tx.rel(self.items, RelOp::RemoveKey(Key::scalar(top)));
        tx.write(self.size, top);
        value
    }

    /// The stack depth in a store (outside any transaction).
    pub fn depth(&self, store: &Store) -> i64 {
        store
            .value(self.size)
            .and_then(Value::as_int)
            .expect("size location holds an integer")
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
    use janus_detect::SequenceDetector;

    #[test]
    fn push_pop_roundtrip() {
        let mut store = Store::new();
        let st = StackList::alloc(&mut store, "monitor.itemsWeight");
        let h = st.clone();
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            h.push(tx, 10i64);
            h.push(tx, 20i64);
            assert_eq!(h.size(tx), 2);
            assert_eq!(h.pop(tx), Scalar::Int(20));
            assert_eq!(h.pop(tx), Scalar::Int(10));
            assert_eq!(h.size(tx), 0);
        })];
        let (final_store, _) = Janus::run_sequential(store, &tasks);
        assert_eq!(st.depth(&final_store), 0);
    }

    #[test]
    fn balanced_tasks_commute_under_sequence_detection() {
        // The JFileSync identity pattern: every task pushes then pops, so
        // concurrent balanced tasks never really conflict.
        let mut store = Store::new();
        let st = StackList::alloc(&mut store, "monitor.itemsStarted");
        let tasks: Vec<Task> = (0..8)
            .map(|i| {
                let h = st.clone();
                Task::new(move |tx: &mut TxView| {
                    h.push(tx, (i * 10) as i64);
                    h.pop(tx);
                })
            })
            .collect();
        let janus = Janus::new(std::sync::Arc::new(SequenceDetector::new())).threads(4);
        let outcome = janus.run(store, tasks);
        assert_eq!(st.depth(&outcome.store), 0);
    }

    #[test]
    #[should_panic(expected = "empty stack")]
    fn pop_empty_panics() {
        let mut store = Store::new();
        let st = StackList::alloc(&mut store, "s");
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            st.pop(tx);
        })];
        let _ = Janus::run_sequential(store, &tasks);
    }
}

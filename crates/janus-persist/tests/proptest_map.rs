//! Property tests: `PersistentMap` behaves exactly like `BTreeMap`, and
//! snapshots are immune to later mutation — also while other threads
//! read them as the owner keeps mutating in place.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use janus_persist::PersistentMap;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, i32),
    Remove(u8),
    Get(u8),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<i32>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        any::<u8>().prop_map(MapOp::Remove),
        any::<u8>().prop_map(MapOp::Get),
        Just(MapOp::Snapshot),
    ]
}

proptest! {
    #[test]
    fn behaves_like_btreemap(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut subject: PersistentMap<u8, i32> = PersistentMap::new();
        let mut model: BTreeMap<u8, i32> = BTreeMap::new();
        let mut snapshots: Vec<(PersistentMap<u8, i32>, BTreeMap<u8, i32>)> = Vec::new();

        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(subject.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(subject.remove(&k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(subject.get(&k), model.get(&k));
                }
                MapOp::Snapshot => {
                    snapshots.push((subject.clone(), model.clone()));
                }
            }
            prop_assert_eq!(subject.len(), model.len());
        }

        // Iteration agrees entry-for-entry (sorted order).
        let got: Vec<(u8, i32)> = subject.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u8, i32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);

        // Every snapshot still matches the model state at snapshot time.
        for (snap, snap_model) in snapshots {
            let got: Vec<(u8, i32)> = snap.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u8, i32)> = snap_model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "snapshot was disturbed by later mutation");
        }
    }

    /// The soundness check for in-place mutation: snapshots handed to
    /// reader threads stay equal to their model while the owner keeps
    /// inserting and removing. Each reader re-checks its snapshot until
    /// the owner has finished mutating, then once more, so every snapshot
    /// is checked both during and after the owner's later updates.
    #[test]
    fn snapshots_read_on_other_threads_stay_intact(
        ops in proptest::collection::vec(op_strategy(), 0..300),
    ) {
        let mut subject: PersistentMap<u8, i32> = PersistentMap::new();
        let mut model: BTreeMap<u8, i32> = BTreeMap::new();
        let done = AtomicBool::new(false);
        let torn = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for op in ops {
                match op {
                    MapOp::Insert(k, v) => {
                        subject.insert(k, v);
                        model.insert(k, v);
                    }
                    MapOp::Remove(k) => {
                        subject.remove(&k);
                        model.remove(&k);
                    }
                    MapOp::Get(_) => {}
                    MapOp::Snapshot => {
                        let (snap, want) = (subject.clone(), model.clone());
                        let done = &done;
                        readers.push(scope.spawn(move || {
                            let intact = || {
                                let entries = snap.iter().map(|(k, v)| (*k, *v));
                                snap.len() == want.len()
                                    && entries.eq(want.iter().map(|(k, v)| (*k, *v)))
                                    && want.iter().all(|(k, v)| snap.get(k) == Some(v))
                            };
                            loop {
                                // Release/Acquire pairs with the owner's
                                // store after its last mutation.
                                let finished = done.load(Ordering::Acquire);
                                if !intact() {
                                    return false;
                                }
                                if finished {
                                    return true;
                                }
                                std::thread::yield_now();
                            }
                        }));
                    }
                }
            }
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .filter(|intact| !intact)
                .count()
        });
        prop_assert_eq!(torn, 0, "a snapshot changed under a concurrent reader");
        let got: Vec<(u8, i32)> = subject.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u8, i32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }
}

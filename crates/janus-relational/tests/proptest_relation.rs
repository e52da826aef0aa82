//! Property test: `Relation` behaves exactly like a `BTreeMap` from key
//! (the projection onto the schema's key columns) to tuple — the same
//! displaced tuples, the same select results, the same iteration order —
//! and snapshots taken mid-sequence are immune to later mutation.
//!
//! The schemas cover an FD whose domain is a prefix of the columns, one
//! whose domain is not (`Fd::new(&[1], &[0])`, which the log's wire
//! format can decode), and no FD at all (the key is the whole tuple).

use std::collections::BTreeMap;
use std::sync::Arc;

use janus_relational::{Fd, Formula, Key, Relation, Scalar, Schema, Tuple};
use proptest::prelude::*;

type Model = BTreeMap<Vec<Scalar>, Tuple>;

fn schemas() -> [Arc<Schema>; 3] {
    [
        Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1])),
        Schema::with_fd(&["v", "k"], Fd::new(&[1], &[0])),
        Schema::new(&["a", "b"]),
    ]
}

#[derive(Debug, Clone)]
enum RelCmd {
    Insert(i64, i64),
    Remove(i64, i64),
    RemoveKey(i64, i64),
    /// A select pinning the key columns, plus an optional non-key atom.
    SelectPinned(i64, i64, Option<i64>),
    /// A select that does not pin the key columns.
    SelectUnpinned(i64),
    Clear,
    Snapshot,
}

fn cmd_strategy() -> impl Strategy<Value = RelCmd> {
    let small = 0i64..5;
    // Inserts are listed twice to weigh them up: the relation must grow
    // for removals and selects to find something.
    let insert = || (small.clone(), small.clone()).prop_map(|(a, b)| RelCmd::Insert(a, b));
    prop_oneof![
        insert(),
        insert(),
        (small.clone(), small.clone()).prop_map(|(a, b)| RelCmd::Remove(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| RelCmd::RemoveKey(a, b)),
        // An extra component of 5 stands for "no non-key atom".
        (small.clone(), small.clone(), 0i64..6).prop_map(|(a, b, c)| RelCmd::SelectPinned(
            a,
            b,
            (c < 5).then_some(c)
        )),
        small.clone().prop_map(RelCmd::SelectUnpinned),
        Just(RelCmd::Clear),
        Just(RelCmd::Snapshot),
    ]
}

fn tuple(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Scalar::Int(a), Scalar::Int(b)])
}

/// The model's key of `t`: its projection onto the key columns.
fn model_key(schema: &Schema, t: &Tuple) -> Vec<Scalar> {
    t.project(schema.key_columns())
}

/// A key valuation built from two candidate components: a one-column key
/// takes the first, the two-column (whole-tuple) key takes both.
fn key_valuation(schema: &Schema, a: i64, b: i64) -> Vec<Scalar> {
    [a, b]
        .into_iter()
        .take(schema.key_columns().len())
        .map(Scalar::Int)
        .collect()
}

/// The first column outside the key, if any.
fn non_key_column(schema: &Schema) -> Option<usize> {
    (0..schema.arity()).find(|c| !schema.key_columns().contains(c))
}

fn contents(r: &Relation) -> Vec<Tuple> {
    r.iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn relation_behaves_like_a_keyed_btreemap(
        schema_ix in 0usize..3,
        cmds in proptest::collection::vec(cmd_strategy(), 0..80),
    ) {
        let schema = Arc::clone(&schemas()[schema_ix]);
        let key_cols = schema.key_columns().to_vec();
        let mut subject = Relation::empty(Arc::clone(&schema));
        let mut model = Model::new();
        let mut snapshots: Vec<(Relation, Vec<Tuple>)> = Vec::new();

        for cmd in cmds {
            match cmd {
                RelCmd::Insert(a, b) => {
                    let t = tuple(a, b);
                    let want = model.insert(model_key(&schema, &t), t.clone());
                    prop_assert_eq!(subject.insert(t), want);
                }
                RelCmd::Remove(a, b) => {
                    let t = tuple(a, b);
                    let key = model_key(&schema, &t);
                    let present = model.get(&key) == Some(&t);
                    if present {
                        model.remove(&key);
                    }
                    prop_assert_eq!(subject.contains(&t), present);
                    prop_assert_eq!(subject.remove(&t), present);
                }
                RelCmd::RemoveKey(a, b) => {
                    let key = key_valuation(&schema, a, b);
                    let want = model.remove(&key);
                    prop_assert_eq!(subject.remove_key(&Key::new(key)), want);
                }
                RelCmd::SelectPinned(a, b, extra) => {
                    let key = key_valuation(&schema, a, b);
                    let mut f = Formula::tuple_eq(&key_cols, &key);
                    if let (Some(c), Some(v)) = (non_key_column(&schema), extra) {
                        f = f.and(Formula::eq(c, v));
                    }
                    let want: Vec<Tuple> =
                        model.get(&key).filter(|t| f.sat(t)).cloned().into_iter().collect();
                    prop_assert_eq!(subject.select(&f), want);
                    prop_assert_eq!(
                        subject.lookup(&Key::new(key.clone())),
                        model.get(&key).cloned()
                    );
                }
                RelCmd::SelectUnpinned(v) => {
                    // Constrains one non-key column (or, without an FD,
                    // only one of the two key columns): a full scan.
                    let c = non_key_column(&schema).unwrap_or(1);
                    let f = Formula::eq(c, v);
                    let want: Vec<Tuple> = model.values().filter(|t| f.sat(t)).cloned().collect();
                    prop_assert_eq!(subject.select(&f), want);
                }
                RelCmd::Clear => {
                    model.clear();
                    subject.clear();
                }
                RelCmd::Snapshot => {
                    snapshots.push((subject.clone(), model.values().cloned().collect()));
                }
            }
            prop_assert_eq!(subject.len(), model.len());
        }

        // Iteration is in key order, tuple for tuple.
        let want: Vec<Tuple> = model.values().cloned().collect();
        prop_assert_eq!(contents(&subject), want);
        for t in model.values() {
            prop_assert_eq!(subject.key_of(t), Key::new(model_key(&schema, t)));
        }

        for (snap, frozen) in snapshots {
            prop_assert_eq!(contents(&snap), frozen, "snapshot disturbed by later mutation");
        }
    }
}

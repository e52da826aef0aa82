//! Property tests: the symbolic content formulas of Table 4 agree with
//! concrete relation semantics, and footprints are sound.

use std::sync::Arc;

use janus_relational::content::Content;
use janus_relational::{Fd, Formula, Key, RelOp, Relation, Scalar, Schema, Tuple};
use proptest::prelude::*;

fn map_schema() -> Arc<Schema> {
    Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]))
}

const KEYS: std::ops::Range<i64> = 0..4;
const VALS: std::ops::Range<i64> = 0..3;

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    (KEYS, VALS).prop_map(|(k, v)| Tuple::new(vec![Scalar::Int(k), Scalar::Int(v)]))
}

fn op_strategy() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        tuple_strategy().prop_map(RelOp::insert),
        tuple_strategy().prop_map(RelOp::remove),
        KEYS.prop_map(|k| RelOp::RemoveKey(Key::scalar(k))),
        KEYS.prop_map(|k| RelOp::select(Formula::eq(0, k))),
        Just(RelOp::Clear),
    ]
}

fn initial_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(tuple_strategy(), 0..5)
        .prop_map(|ts| Relation::from_tuples(map_schema(), ts))
}

/// Every probe tuple in the small universe.
fn probes() -> Vec<Tuple> {
    let mut out = Vec::new();
    for k in KEYS {
        for v in VALS {
            out.push(Tuple::new(vec![Scalar::Int(k), Scalar::Int(v)]));
        }
    }
    out
}

proptest! {
    /// Table 4 soundness: the content formula computed symbolically from
    /// `Base` describes exactly the concretely transformed relation.
    #[test]
    fn content_formula_matches_concrete_semantics(
        initial in initial_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..8),
    ) {
        let schema = map_schema();
        let mut concrete = initial.clone();
        for op in &ops {
            op.apply(&mut concrete);
        }
        let content = Content::Base.apply_all(ops.iter(), &schema);
        for t in probes() {
            prop_assert_eq!(
                content.eval(&t, initial.contains(&t)),
                concrete.contains(&t),
                "disagreement on {} after {:?}", t, ops
            );
        }
    }

    /// Footprint soundness: if an operation's result or effect differs
    /// between two relations, the relations must differ inside the
    /// operation's footprint (reads ∪ writes).
    #[test]
    fn footprints_cover_observable_differences(
        r1 in initial_strategy(),
        r2 in initial_strategy(),
        op in op_strategy(),
    ) {
        let fp1 = op.footprint(&r1);
        let fp2 = op.footprint(&r2);
        // Apply to both.
        let (mut a, mut b) = (r1.clone(), r2.clone());
        let res_a = op.eval(&a);
        let res_b = op.eval(&b);
        op.apply(&mut a);
        op.apply(&mut b);

        // If the relations agree on every cell either footprint touches,
        // results must agree and the per-cell effects must agree.
        let accessed = fp1.accessed().union(&fp2.accessed());
        let agree_on_accessed = probes().iter().all(|t| {
            let key = r1.key_of(t);
            !accessed.covers(&key) || (r1.lookup(&key) == r2.lookup(&key))
        });
        if agree_on_accessed {
            prop_assert_eq!(res_a, res_b, "select result leaked outside footprint");
        }
    }

    /// FD maintenance: after any op sequence, no two tuples share a key.
    #[test]
    fn functional_dependency_is_maintained(
        initial in initial_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..10),
    ) {
        let mut r = initial;
        for op in &ops {
            op.apply(&mut r);
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in r.iter() {
            prop_assert!(
                seen.insert(t.get(0).clone()),
                "duplicate key {} after {:?}", t.get(0), ops
            );
        }
    }
}

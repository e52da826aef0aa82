//! SAT-backed symbolic verification of relational commutativity (§6.2).
//!
//! Relation contents are described propositionally (Table 4, implemented
//! in [`janus_relational::content`]); equivalence between two symbolic
//! descriptions is decided by asking the SAT solver for a satisfying
//! assignment of `¬(f ↔ g)` — exactly the Sat4j pipeline of the paper,
//! with `janus-sat` substituted.
//!
//! The initial relation is the free variable [`Content::Base`], so a
//! successful proof holds for *every* entry state: training uses this to
//! certify that two mined relational transformer sequences commute
//! universally, and the test suite uses it as an oracle against concrete
//! evaluation.

use std::collections::BTreeMap;

use janus_relational::content::{boolean_totality_pairs, exclusivity_pairs, Content};
use janus_relational::{RelOp, Scalar, Schema};
use janus_sat::{is_equivalent, Lit, PropFormula, Var};

/// Numbering of content atoms as propositional variables: variable 0 is
/// `Base`, the rest are `(column, value)` atoms.
fn atom_vars(contents: &[&Content]) -> BTreeMap<(usize, Scalar), u32> {
    let mut atoms = std::collections::BTreeSet::new();
    for c in contents {
        atoms.extend(c.atoms());
    }
    atoms
        .into_iter()
        .enumerate()
        .map(|(i, a)| (a, i as u32 + 1))
        .collect()
}

/// Translates a [`Content`] formula to a [`PropFormula`] under an atom
/// numbering.
fn to_prop(c: &Content, vars: &BTreeMap<(usize, Scalar), u32>) -> PropFormula {
    match c {
        Content::Base => PropFormula::var(0),
        Content::True => PropFormula::True,
        Content::False => PropFormula::False,
        Content::Atom(col, v) => {
            let id = vars[&(*col, v.clone())];
            PropFormula::var(id)
        }
        Content::Not(f) => to_prop(f, vars).not(),
        Content::And(f, g) => to_prop(f, vars).and(to_prop(g, vars)),
        Content::Or(f, g) => to_prop(f, vars).or(to_prop(g, vars)),
    }
}

/// The theory axioms making the propositional encoding faithful to the
/// equality semantics of atoms:
///
/// * two equalities over the same column with different values are
///   mutually exclusive (`¬a ∨ ¬b`);
/// * for a boolean column mentioned with both polarities, exactly one
///   holds (`a ∨ b`).
///
/// Pass `with_value_axioms = false` to *drop* them: the proof then also
/// covers every re-binding of the concrete values (distinct training
/// values may coincide in production), at the cost of completeness.
fn axioms(
    contents: &[&Content],
    vars: &BTreeMap<(usize, Scalar), u32>,
    with_value_axioms: bool,
) -> Vec<Vec<Lit>> {
    if !with_value_axioms {
        return Vec::new();
    }
    let mut atoms = std::collections::BTreeSet::new();
    for c in contents {
        atoms.extend(c.atoms());
    }
    let mut out = Vec::new();
    for (a, b) in exclusivity_pairs(&atoms) {
        out.push(vec![Var(vars[&a]).neg(), Var(vars[&b]).neg()]);
    }
    for (a, b) in boolean_totality_pairs(&atoms) {
        out.push(vec![Var(vars[&a]).pos(), Var(vars[&b]).pos()]);
    }
    out
}

/// Decides whether two content formulas are equivalent (describe the same
/// relation for every tuple and every entry state).
pub fn contents_equivalent(f: &Content, g: &Content, with_value_axioms: bool) -> bool {
    let contents = [f, g];
    let vars = atom_vars(&contents);
    let pf = to_prop(f, &vars);
    let pg = to_prop(g, &vars);
    let ax = axioms(&contents, &vars, with_value_axioms);
    is_equivalent(&pf, &pg, &ax)
}

/// Proves that two relational transformer sequences commute for every
/// entry state: the content of `a·b` applied to the symbolic base
/// relation equals the content of `b·a`.
///
/// A `true` answer is a universal commutativity certificate; `false`
/// means the proof failed (the sequences may still commute on specific
/// entry states, which the input-dependent condition checks at runtime).
pub fn prove_commutes_all_states(
    schema: &Schema,
    a: &[RelOp],
    b: &[RelOp],
    with_value_axioms: bool,
) -> bool {
    let ab = Content::Base.apply_all(a.iter().chain(b), schema);
    let ba = Content::Base.apply_all(b.iter().chain(a), schema);
    contents_equivalent(&ab, &ba, with_value_axioms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_relational::{tuple, Fd, Relation};
    use std::sync::Arc;

    fn map_schema() -> Arc<Schema> {
        Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]))
    }

    #[test]
    fn insert_remove_identity_commutes_universally() {
        let s = map_schema();
        let a = vec![RelOp::insert(tuple![1, 10]), RelOp::remove(tuple![1, 10])];
        let b = vec![RelOp::insert(tuple![1, 20]), RelOp::remove(tuple![1, 20])];
        assert!(prove_commutes_all_states(&s, &a, &b, true));
    }

    #[test]
    fn conflicting_inserts_fail_the_proof() {
        let s = map_schema();
        let a = vec![RelOp::insert(tuple![1, 10])];
        let b = vec![RelOp::insert(tuple![1, 20])];
        assert!(!prove_commutes_all_states(&s, &a, &b, true));
    }

    #[test]
    fn inserts_on_distinct_keys_commute() {
        let s = map_schema();
        let a = vec![RelOp::insert(tuple![1, 10])];
        let b = vec![RelOp::insert(tuple![2, 20])];
        assert!(prove_commutes_all_states(&s, &a, &b, true));
    }

    #[test]
    fn equal_inserts_commute() {
        let s = map_schema();
        let a = vec![RelOp::insert(tuple![1, 10])];
        assert!(prove_commutes_all_states(&s, &a, &a, true));
    }

    #[test]
    fn dropping_value_axioms_is_more_conservative() {
        let s = map_schema();
        // Without the exclusivity axioms, the displaced-tuple reasoning
        // for two inserts of the same tuple still goes through (pure
        // structural equality)...
        let a = vec![RelOp::insert(tuple![1, 10])];
        assert!(prove_commutes_all_states(&s, &a, &a, false));
        // ...but distinct-key commutativity, which relies on key
        // disjointness, may no longer be provable.
        let b = vec![RelOp::insert(tuple![2, 20])];
        assert!(!prove_commutes_all_states(&s, &a, &b, false));
    }

    #[test]
    fn remove_then_insert_vs_clear_semantics() {
        let s = map_schema();
        // remove(1,10) after insert(1,10) leaves key 1 empty; composing
        // with an unrelated insert on key 2 commutes.
        let a = vec![RelOp::insert(tuple![1, 10]), RelOp::remove(tuple![1, 10])];
        let b = vec![RelOp::insert(tuple![2, 5])];
        assert!(prove_commutes_all_states(&s, &a, &b, true));
    }

    /// Symbolic equivalence must agree with concrete evaluation on probe
    /// tuples and entry states.
    #[test]
    fn symbolic_agrees_with_concrete_oracle() {
        let s = map_schema();
        let seq_pairs: Vec<(Vec<RelOp>, Vec<RelOp>)> = vec![
            (
                vec![RelOp::insert(tuple![1, 10]), RelOp::remove(tuple![1, 10])],
                vec![RelOp::insert(tuple![1, 20]), RelOp::remove(tuple![1, 20])],
            ),
            (
                vec![RelOp::insert(tuple![1, 10])],
                vec![RelOp::insert(tuple![1, 20])],
            ),
            (
                vec![RelOp::insert(tuple![1, 10])],
                vec![RelOp::RemoveKey(janus_relational::Key::scalar(2i64))],
            ),
            (vec![RelOp::Clear], vec![RelOp::Clear]),
            (vec![RelOp::Clear], vec![RelOp::insert(tuple![3, 30])]),
        ];
        let entries = [
            Relation::empty(Arc::clone(&s)),
            Relation::from_tuples(Arc::clone(&s), [tuple![1, 10]]),
            Relation::from_tuples(Arc::clone(&s), [tuple![1, 99], tuple![3, 30]]),
        ];
        for (a, b) in &seq_pairs {
            let proved = prove_commutes_all_states(&s, a, b, true);
            // Concrete check over all probe entries.
            let concrete_all = entries.iter().all(|entry| {
                let mut ab = entry.clone();
                for op in a.iter().chain(b) {
                    op.apply(&mut ab);
                }
                let mut ba = entry.clone();
                for op in b.iter().chain(a) {
                    op.apply(&mut ba);
                }
                ab == ba
            });
            if proved {
                assert!(
                    concrete_all,
                    "symbolic proof contradicted by {a:?} vs {b:?}"
                );
            } else {
                // The proof is complete for these finite cases: failure
                // should be witnessed by some probe entry.
                assert!(
                    !concrete_all,
                    "proof failed but no concrete counterexample for {a:?} vs {b:?}"
                );
            }
        }
    }
}

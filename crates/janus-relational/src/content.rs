//! Symbolic (logical) representation of relation contents (Table 4).
//!
//! The content of a relation is expressed as a propositional restriction
//! over the values contained in it: a tuple `t` belongs to the described
//! relation iff the content formula holds when its atoms are evaluated
//! against `t` and the distinguished [`Content::Base`] atom is read as
//! "`t` was in the initial relation `r0`".
//!
//! Update rules (Table 4):
//!
//! | transformation | content update |
//! |---|---|
//! | `r' = r \ w` | `f_{r'} = f_r ∧ ¬f_w` |
//! | `r' = r ∪ w` | `f_{r'} = f_r ∨ f_w` |
//! | `r' = r ∩ w` | `f_{r'} = f_r ∧ f_w` |
//! | `insert r t` | `f_{r'} = (f_r ∧ ¬⋀_{c∈C_dom} c=t_c) ∨ ⋀_{c∈C} c=t_c` |
//! | `remove r t` | `f_{r'} = f_r ∧ ¬⋀_{c∈C} c=t_c` |
//! | `w := select r φ` | `f_w = f_r ∧ φ` |
//!
//! Describing contents in propositional form lets equivalence tests be
//! implemented as calls to a SAT solver (`janus-sat`): `f ≡ g` iff
//! `¬(f ↔ g)` is unsatisfiable under the column-exclusivity axioms
//! returned by [`exclusivity_pairs`].

use std::collections::BTreeSet;
use std::fmt;

use crate::{Formula, RelOp, Scalar, Schema, Tuple};

/// A symbolic description of a relation's content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Content {
    /// Membership in the (symbolic) initial relation `r0`.
    Base,
    /// Satisfied by every tuple.
    True,
    /// Satisfied by no tuple.
    False,
    /// The atom `c = v`.
    Atom(usize, Scalar),
    /// Negation.
    Not(Box<Content>),
    /// Conjunction.
    And(Box<Content>, Box<Content>),
    /// Disjunction.
    Or(Box<Content>, Box<Content>),
}

impl Content {
    /// Negation with constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Content::True => Content::False,
            Content::False => Content::True,
            Content::Not(c) => *c,
            c => Content::Not(Box::new(c)),
        }
    }

    /// Conjunction with constant folding.
    pub fn and(self, other: Content) -> Self {
        match (self, other) {
            (Content::False, _) | (_, Content::False) => Content::False,
            (Content::True, c) => c,
            (c, Content::True) => c,
            (a, b) => Content::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with constant folding.
    pub fn or(self, other: Content) -> Self {
        match (self, other) {
            (Content::True, _) | (_, Content::True) => Content::True,
            (Content::False, c) => c,
            (c, Content::False) => c,
            (a, b) => Content::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Lifts a selection [`Formula`] into a content formula.
    pub fn from_formula(f: &Formula) -> Self {
        match f {
            Formula::True => Content::True,
            Formula::False => Content::False,
            Formula::Eq(c, v) => Content::Atom(*c, v.clone()),
            Formula::Not(g) => Content::from_formula(g).not(),
            Formula::And(g, h) => Content::from_formula(g).and(Content::from_formula(h)),
            Formula::Or(g, h) => Content::from_formula(g).or(Content::from_formula(h)),
        }
    }

    /// The conjunction `⋀ columns[i] = values[i]`.
    fn tuple_eq(columns: &[usize], t: &Tuple) -> Self {
        let mut f = Content::True;
        for &c in columns {
            f = f.and(Content::Atom(c, t.get(c).clone()));
        }
        f
    }

    /// Applies the Table 4 update rule for a mutation to this content
    /// formula; for a select, returns the content of the *result* `w`
    /// (the relation itself is unchanged, so callers keep `self` as the
    /// relation's content).
    pub fn apply(&self, op: &RelOp, schema: &Schema) -> Content {
        let all_cols: Vec<usize> = (0..schema.arity()).collect();
        match op {
            RelOp::Insert(t) => self
                .clone()
                .and(Content::tuple_eq(schema.key_columns(), t).not())
                .or(Content::tuple_eq(&all_cols, t)),
            RelOp::Remove(t) => self.clone().and(Content::tuple_eq(&all_cols, t).not()),
            RelOp::RemoveKey(k) => {
                let mut key_eq = Content::True;
                for (&c, v) in schema.key_columns().iter().zip(k.components()) {
                    key_eq = key_eq.and(Content::Atom(c, v.clone()));
                }
                self.clone().and(key_eq.not())
            }
            RelOp::Select(f) => self.clone().and(Content::from_formula(f)),
            RelOp::Clear => Content::False,
        }
    }

    /// Applies a whole transformer (sequence of operations) to this
    /// content, per §6.1's "state transformers are expressed as sequences
    /// over the primitive relational operations". Selects do not change
    /// the relation's content and are skipped.
    pub fn apply_all<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a RelOp>,
        schema: &Schema,
    ) -> Content {
        let mut c = self.clone();
        for op in ops {
            if op.is_mutation() {
                c = c.apply(op, schema);
            }
        }
        c
    }

    /// Evaluates the formula against a concrete tuple, reading
    /// [`Content::Base`] as `in_base`.
    pub fn eval(&self, t: &Tuple, in_base: bool) -> bool {
        match self {
            Content::Base => in_base,
            Content::True => true,
            Content::False => false,
            Content::Atom(c, v) => t.try_get(*c) == Some(v),
            Content::Not(f) => !f.eval(t, in_base),
            Content::And(f, g) => f.eval(t, in_base) && g.eval(t, in_base),
            Content::Or(f, g) => f.eval(t, in_base) || g.eval(t, in_base),
        }
    }

    /// All `(column, value)` atoms in the formula.
    pub fn atoms(&self) -> BTreeSet<(usize, Scalar)> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<(usize, Scalar)>) {
        match self {
            Content::Base | Content::True | Content::False => {}
            Content::Atom(c, v) => {
                out.insert((*c, v.clone()));
            }
            Content::Not(f) => f.collect_atoms(out),
            Content::And(f, g) | Content::Or(f, g) => {
                f.collect_atoms(out);
                g.collect_atoms(out);
            }
        }
    }

    /// Whether [`Content::Base`] occurs in the formula.
    pub fn mentions_base(&self) -> bool {
        match self {
            Content::Base => true,
            Content::True | Content::False | Content::Atom(_, _) => false,
            Content::Not(f) => f.mentions_base(),
            Content::And(f, g) | Content::Or(f, g) => f.mentions_base() || g.mentions_base(),
        }
    }
}

impl fmt::Display for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Content::Base => write!(f, "r₀"),
            Content::True => write!(f, "true"),
            Content::False => write!(f, "false"),
            Content::Atom(c, v) => write!(f, "c{c}={v}"),
            Content::Not(g) => write!(f, "¬({g})"),
            Content::And(g, h) => write!(f, "({g} ∧ {h})"),
            Content::Or(g, h) => write!(f, "({g} ∨ {h})"),
        }
    }
}

/// The pairs of atoms that can never hold simultaneously of one tuple:
/// two equalities over the same column with different values. A SAT
/// encoding of content formulas must add `¬a ∨ ¬b` for each such pair to
/// be sound over the equality theory.
pub fn exclusivity_pairs(
    atoms: &BTreeSet<(usize, Scalar)>,
) -> Vec<((usize, Scalar), (usize, Scalar))> {
    let atoms: Vec<_> = atoms.iter().cloned().collect();
    let mut out = Vec::new();
    for i in 0..atoms.len() {
        for j in (i + 1)..atoms.len() {
            if atoms[i].0 == atoms[j].0 && atoms[i].1 != atoms[j].1 {
                out.push((atoms[i].clone(), atoms[j].clone()));
            }
        }
    }
    out
}

/// The pairs of boolean atoms `(c = true, c = false)` such that exactly
/// one must hold (the boolean domain is exhausted by the mentioned
/// values). A SAT encoding adds `a ∨ b` for each.
pub fn boolean_totality_pairs(
    atoms: &BTreeSet<(usize, Scalar)>,
) -> Vec<((usize, Scalar), (usize, Scalar))> {
    let mut out = Vec::new();
    for (c, v) in atoms {
        if *v == Scalar::Bool(true) {
            let neg = (*c, Scalar::Bool(false));
            if atoms.contains(&neg) {
                out.push(((*c, v.clone()), neg));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Fd, Relation};
    use std::sync::Arc;

    fn map_schema() -> Arc<Schema> {
        Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]))
    }

    /// Oracle: the content formula after applying `ops` to an initial
    /// relation must describe exactly the tuples of the concretely
    /// transformed relation.
    fn check_against_concrete(initial: &Relation, ops: &[RelOp], probes: &[Tuple]) {
        let schema = initial.schema().clone();
        let mut concrete = initial.clone();
        for op in ops {
            op.apply(&mut concrete);
        }
        let content = Content::Base.apply_all(ops.iter(), &schema);
        for t in probes {
            let in_base = initial.contains(t);
            assert_eq!(
                content.eval(t, in_base),
                concrete.contains(t),
                "content formula disagrees with concrete semantics on {t} after {ops:?}"
            );
        }
    }

    #[test]
    fn insert_rule_matches_concrete() {
        let initial = Relation::from_tuples(map_schema(), [tuple![1, 10], tuple![2, 20]]);
        let ops = vec![RelOp::insert(tuple![1, 99])];
        let probes = vec![tuple![1, 10], tuple![1, 99], tuple![2, 20], tuple![3, 30]];
        check_against_concrete(&initial, &ops, &probes);
    }

    #[test]
    fn remove_rule_matches_concrete() {
        let initial = Relation::from_tuples(map_schema(), [tuple![1, 10]]);
        let ops = vec![RelOp::remove(tuple![1, 10]), RelOp::remove(tuple![2, 20])];
        let probes = vec![tuple![1, 10], tuple![2, 20]];
        check_against_concrete(&initial, &ops, &probes);
    }

    #[test]
    fn insert_then_remove_is_absence() {
        let initial = Relation::empty(map_schema());
        let ops = vec![RelOp::insert(tuple![3, 30]), RelOp::remove(tuple![3, 30])];
        let probes = vec![tuple![3, 30], tuple![4, 40]];
        check_against_concrete(&initial, &ops, &probes);
    }

    #[test]
    fn clear_rule() {
        let initial = Relation::from_tuples(map_schema(), [tuple![1, 10]]);
        let ops = vec![RelOp::Clear, RelOp::insert(tuple![2, 20])];
        let probes = vec![tuple![1, 10], tuple![2, 20]];
        check_against_concrete(&initial, &ops, &probes);
    }

    #[test]
    fn remove_key_rule() {
        let initial = Relation::from_tuples(map_schema(), [tuple![1, 10], tuple![2, 20]]);
        let ops = vec![RelOp::RemoveKey(crate::Key::scalar(1i64))];
        let probes = vec![tuple![1, 10], tuple![2, 20]];
        check_against_concrete(&initial, &ops, &probes);
    }

    #[test]
    fn select_content_is_conjunction() {
        let content = Content::Base.apply(&RelOp::select(Formula::eq(0, 1i64)), &map_schema());
        // w = r ∧ (c0 = 1)
        assert!(content.eval(&tuple![1, 10], true));
        assert!(!content.eval(&tuple![1, 10], false));
        assert!(!content.eval(&tuple![2, 10], true));
    }

    #[test]
    fn exclusivity_pairs_same_column_different_values() {
        let mut atoms = BTreeSet::new();
        atoms.insert((0usize, Scalar::Int(1)));
        atoms.insert((0usize, Scalar::Int(2)));
        atoms.insert((1usize, Scalar::Int(1)));
        let pairs = exclusivity_pairs(&atoms);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0 .0, 0);
        assert_eq!(pairs[0].1 .0, 0);
    }

    #[test]
    fn boolean_totality_detected() {
        let mut atoms = BTreeSet::new();
        atoms.insert((1usize, Scalar::Bool(true)));
        atoms.insert((1usize, Scalar::Bool(false)));
        atoms.insert((0usize, Scalar::Int(1)));
        let pairs = boolean_totality_pairs(&atoms);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn mentions_base_tracks_occurrence() {
        assert!(Content::Base.mentions_base());
        assert!(!Content::True.mentions_base());
        assert!(Content::Base
            .and(Content::Atom(0, Scalar::Int(1)))
            .mentions_base());
        // Clear erases the base.
        let c = Content::Base.apply(&RelOp::Clear, &map_schema());
        assert!(!c.mentions_base());
    }
}

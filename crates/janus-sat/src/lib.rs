//! A small, complete SAT solver used by JANUS for relational equivalence
//! queries (§6.2 of the paper).
//!
//! The paper discharges equivalence between two symbolic descriptions of a
//! relation's content by "asking the SAT solver for a satisfying
//! assignment for `¬(f ↔ g)`" — using Sat4j. This crate is a from-scratch
//! substitute: a conflict-driven DPLL solver with two-watched-literal
//! propagation, first-UIP clause learning, activity-based branching and
//! Luby restarts, plus a Tseitin transformation from arbitrary
//! propositional formulas to CNF.
//!
//! # Example
//!
//! ```
//! use janus_sat::{PropFormula as P, is_equivalent};
//!
//! // x ∧ y  ≡  ¬(¬x ∨ ¬y)      (De Morgan)
//! let f = P::var(0).and(P::var(1));
//! let g = P::var(0).not().or(P::var(1).not()).not();
//! assert!(is_equivalent(&f, &g, &[]));
//!
//! // x ∨ y  ≢  x ∧ y
//! let f = P::var(0).or(P::var(1));
//! let g = P::var(0).and(P::var(1));
//! assert!(!is_equivalent(&f, &g, &[]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod prop;
mod solver;

pub use cnf::{Clause, Cnf, Lit, Var};
pub use prop::{is_equivalent, is_satisfiable, tseitin, PropFormula};
pub use solver::{global_solver_stats, Solution, Solver, SolverStats};

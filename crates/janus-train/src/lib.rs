//! The JANUS training phase (§5.1–§5.2) and commutativity cache.
//!
//! The purpose of training is to specialize conflict detection in advance
//! of parallel execution: the application is exercised single-threaded on
//! training inputs, dependencies between trace operations are tracked
//! (Equation 1), and the per-location dependent operation subsequences
//! mined from the resulting dependence graph are paired up across task
//! boundaries. For each pair, a commutativity *condition* — a predicate
//! over input states — is computed offline, so that at runtime a conflict
//! query is answered by a cache lookup plus a cheap condition evaluation
//! instead of the quadratic `SAMEREAD`/`COMMUTE` re-evaluation of Figure 8.
//!
//! Generalization happens along two axes:
//!
//! * **Classes** — conditions are keyed by the locations' static
//!   [`janus_log::ClassId`], not their runtime identity, so knowledge
//!   transfers from training inputs to production inputs.
//! * **Sequence abstraction** (§5.2) — concrete sequences are abstracted
//!   into a regular form by collapsing *idempotent* repeated blocks under
//!   the Kleene-cross operator (Lemma 5.1), so a condition learned from
//!   `{work+=x; work-=x}` matches the arbitrarily long add/subtract
//!   chains production inputs induce.
//!
//! [`train`] builds a [`CommutativityCache`]; freezing it gives the
//! [`FrozenCache`], the one type that answers queries over cached
//! entries. It implements [`janus_detect::SequenceOracle`] and plugs into
//! [`janus_detect::CachedSequenceDetector`], directly or under the
//! [`OnlineLearningCache`] that extends it on a miss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abstraction;
mod cache;
mod condition;
mod depgraph;
mod effect;
mod frozen;
mod mine;
mod online;
mod persistfmt;
pub mod symbolic;

pub use abstraction::{
    abstract_kind, abstract_sequence, matches_pattern, AbstractOp, Element, Nfa, Pattern,
};
pub use cache::{CacheKey, CellShape, CommutativityCache, TrainReport};
pub use condition::{evaluate_condition, Condition};
pub use depgraph::{DependenceGraph, OpNode};
pub use effect::{compose, summarize, CellContent, Determined, Summary};
pub use frozen::{FrozenCache, FrozenCacheStats, INLINE_OPS};
pub use mine::{mine_pairs, train, CandidatePair, TrainConfig, TrainingRun};
pub use online::OnlineLearningCache;
pub use persistfmt::{parse_pattern, ParseCacheError};

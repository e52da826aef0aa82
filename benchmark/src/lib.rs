//! The repository's wall-clock benchmark: `janus-serve` end to end, the
//! paper's loops on real threads, and a layer ledger measured from
//! outside the program. See `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod drive;
pub mod gen;
pub mod json;
pub mod loops;
pub mod replica;
pub mod report;
pub mod run;
pub mod seams;
pub mod serve;
pub mod stats;
pub mod trace;

//! Block execution as a service: a pipelined block executor over a
//! long-lived JANUS [`Session`](janus_core::Session).
//!
//! The paper runs one task list to completion (`DOPARALLEL`). This
//! crate runs an unbounded *stream* of blocks — batches of transactions
//! arriving over time — against one persistent store:
//!
//! * [`BlockExecutor`] keeps up to two blocks in flight, each driven by
//!   a job on `janus-core`'s process-wide pool: block N+1 executes
//!   while block N validates and commits. Unordered blocks commit as
//!   they validate, kept serializable by the same hindsight validation
//!   as one batch; ordered blocks follow the session's turn, preserving
//!   exact submission order;
//! * [`AdmissionQueue`] bounds the number of queued blocks and sheds
//!   load explicitly instead of queueing without limit;
//! * failure is block-scoped: a poison panic or watchdog fire fails
//!   only its block ([`BlockStatus::Failed`]); the session and every
//!   other block keep running.
//!
//! The `janus-serve` binary wires these into a line-protocol service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod executor;
mod stats;

pub use admission::{Admission, AdmissionQueue};
pub use executor::{BlockExecutor, BlockOutcome, BlockStatus, PipelineMode, Submitted};
pub use stats::{BatchReport, BlockStats, ServeReport, ServeStats};

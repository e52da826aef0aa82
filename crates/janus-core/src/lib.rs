//! The JANUS parallelization protocol (§4, Figure 7).
//!
//! JANUS accepts (i) an initial configuration of the shared state
//! ([`Store`]), (ii) a list of [`Task`]s, and (iii) a specification
//! whether to commit the tasks in the order in which they were given. It
//! repeatedly tries to execute the tasks asynchronously, in parallel,
//! until the task pool is drained:
//!
//! * `CREATETRANSACTION` snapshots the shared state under a *read* lock —
//!   privatization is O(1) thanks to the persistent store — and records
//!   the transaction's begin time from the global `Clock`;
//! * the task body runs sequentially against its privatized copy through
//!   a [`TxView`], which logs every shared-state operation;
//! * at commit time, the operations committed since the transaction began
//!   (its *conflict history*) are fetched and checked against the
//!   transaction's log by a pluggable
//!   [`janus_detect::ConflictDetector`] — with no lock held;
//! * `COMMIT` takes the *write* lock, validates that the history has not
//!   evolved since detection, replays the logged operations onto the
//!   global state, and advances the clock.
//!
//! Theorem 4.1: with a sound and valid detector the protocol terminates
//! and is serializable — ordered runs end in the same final state as the
//! sequential execution; unordered runs end in the state of *some* serial
//! order (the commit order). The integration test-suite checks both.
//!
//! # Example
//!
//! ```
//! use janus_core::{Janus, Store, Task};
//! use janus_detect::SequenceDetector;
//! use janus_relational::Value;
//! use std::sync::Arc;
//!
//! let mut store = Store::new();
//! let work = store.alloc("work", Value::int(0));
//!
//! // Three tasks, each bumping and restoring the shared counter
//! // (the Figure 1 identity pattern).
//! let tasks: Vec<Task> = (1..=3)
//!     .map(|w| {
//!         Task::new(move |tx| {
//!             tx.add(work, w);
//!             tx.add(work, -w);
//!         })
//!     })
//!     .collect();
//!
//! let janus = Janus::new(Arc::new(SequenceDetector::new())).threads(2);
//! let outcome = janus.run(store, tasks);
//! assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
//! assert_eq!(outcome.stats.commits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod runtime;
mod shard;
mod store;
mod txview;

pub use exec::{pool_threads, spawn, Pending};
pub use runtime::{
    payload_message, Batch, BatchOutcome, CommitSink, Janus, Outcome, PanicPolicy, RunStats,
    Session, Task, TaskFailure,
};
pub use shard::{ShardReport, ShardStatsSnapshot};
pub use store::{SnapshotState, Store};
pub use txview::TxView;

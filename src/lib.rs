//! **janus** — speculative parallelization with sequence-based
//! ("hindsight") conflict detection.
//!
//! A from-scratch Rust reproduction of *JANUS: Exploiting Parallelism via
//! Hindsight* (Tripp, Manevich, Field, Sagiv — PLDI 2012). JANUS runs a
//! list of tasks optimistically in parallel; instead of aborting
//! transactions whenever their read/write sets overlap (the write-set
//! approach), it checks whether the *sequences* of operations the
//! transactions performed on each shared location commute as a whole —
//! admitting the identity, reduction, shared-as-local, equal-writes and
//! spurious-reads patterns that real programs exhibit.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `janus-core` | the Figure 7 protocol: [`core::Janus`], [`core::Store`], [`core::Task`], [`core::TxView`] |
//! | [`detect`] | `janus-detect` | conflict detectors and relaxations |
//! | [`train`] | `janus-train` | offline training, sequence abstraction, the commutativity cache |
//! | [`adt`] | `janus-adt` | relational abstraction specifications (counters, maps, bit sets, canvases) |
//! | [`relational`] | `janus-relational` | relations, tuples, formulas, footprints (§6) |
//! | [`log`] | `janus-log` | operation logs and per-location decomposition |
//! | [`sat`] | `janus-sat` | the SAT solver behind symbolic equivalence checks |
//! | [`persist`] | `janus-persist` | the persistent map behind O(1) snapshots |
//! | [`obs`] | `janus-obs` | lifecycle tracing, abort attribution, the unified metrics registry |
//! | [`sched`] | `janus-sched` | task dispatch: the `SchedulePolicy`/`TaskSource` seam and FIFO |
//! | [`fault`] | `janus-fault` | deterministic fault-injection plans for chaos testing |
//! | [`block`] | `janus-block` | the pipelined block-executor service: warm worker pool, cross-batch commit gating, admission control |
//! | [`wal`] | `janus-wal` | the durable commit journal: segmented write-ahead log, snapshots, crash recovery |
//! | [`workloads`] | `janus-workloads` | the five evaluation benchmarks |
//!
//! # Quickstart
//!
//! ```
//! use janus::core::{Janus, Store, Task};
//! use janus::detect::SequenceDetector;
//! use janus::relational::Value;
//! use std::sync::Arc;
//!
//! // A shared counter every task bumps and restores (Figure 1's
//! // identity pattern): write-set STMs serialize this loop, JANUS
//! // runs it conflict-free.
//! let mut store = Store::new();
//! let work = store.alloc("work", Value::int(0));
//! let tasks: Vec<Task> = (1..=8)
//!     .map(|w| {
//!         Task::new(move |tx| {
//!             tx.add(work, w);
//!             // ... process the item ...
//!             tx.add(work, -w);
//!         })
//!     })
//!     .collect();
//!
//! let outcome = Janus::new(Arc::new(SequenceDetector::new()))
//!     .threads(4)
//!     .run(store, tasks);
//! assert_eq!(outcome.store.value(work), Some(&Value::int(0)));
//! assert_eq!(outcome.stats.retries, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The parallelization protocol (re-export of `janus-core`).
pub mod core {
    pub use janus_core::*;
}

/// Conflict detectors and consistency relaxations (re-export of
/// `janus-detect`).
pub mod detect {
    pub use janus_detect::*;
}

/// Offline training and the commutativity cache (re-export of
/// `janus-train`).
pub mod train {
    pub use janus_train::*;
}

/// Abstraction specifications for shared ADTs (re-export of `janus-adt`).
pub mod adt {
    pub use janus_adt::*;
}

/// The relational state model (re-export of `janus-relational`).
pub mod relational {
    pub use janus_relational::*;
}

/// Operation logs and decomposition (re-export of `janus-log`).
pub mod log {
    pub use janus_log::*;
}

/// The SAT solver (re-export of `janus-sat`).
pub mod sat {
    pub use janus_sat::*;
}

/// Persistent data structures (re-export of `janus-persist`).
pub mod persist {
    pub use janus_persist::*;
}

/// Transaction-lifecycle tracing, abort attribution and the unified
/// metrics registry (re-export of `janus-obs`).
pub mod obs {
    pub use janus_obs::*;
}

/// Task dispatch: the `SchedulePolicy`/`TaskSource` seam and FIFO
/// (re-export of `janus-sched`).
pub mod sched {
    pub use janus_sched::*;
}

/// Deterministic fault-injection plans for chaos testing (re-export of
/// `janus-fault`).
pub mod fault {
    pub use janus_fault::*;
}

/// The pipelined block-executor service (re-export of `janus-block`).
pub mod block {
    pub use janus_block::*;
}

/// The durable commit journal and crash recovery (re-export of
/// `janus-wal`).
pub mod wal {
    pub use janus_wal::*;
}

/// The five evaluation benchmarks (re-export of `janus-workloads`).
pub mod workloads {
    pub use janus_workloads::*;
}

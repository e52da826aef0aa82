//! Observability for the JANUS runtime: transaction-lifecycle tracing,
//! abort attribution and a unified metrics registry.
//!
//! JANUS's value proposition is quantitative — retry ratios (Figure 10),
//! cache miss rates (Figure 11), "which data structure serializes this
//! benchmark" (§7.2) — so the runtime carries an observability layer
//! cheap enough to leave on:
//!
//! * [`Event`] / [`EventKind`] — the transaction lifecycle (`begin`,
//!   `validate_open`, `delta_revalidate`, per-cell conflict checks with
//!   their verdict and reason, `abort`, `commit`, `gc_reclaim`), each
//!   stamped with the commit clock it was observed at and a monotonic
//!   timestamp, so traces can be replayed and checked offline.
//! * [`Recorder`] / [`RingHandle`] — per-thread bounded event rings.
//!   Each worker thread owns its ring exclusively, so the recording hot
//!   path takes no lock and performs no allocation; instrumentation
//!   sites branch on an `Option` handle, so a disabled recorder costs
//!   one predictable branch.
//! * [`MetricsRegistry`] / [`Snapshot`] — one sink for every statistics
//!   struct in the workspace (`RunStats`, `DetectorStats`, `FrozenCacheStats`,
//!   `SolverStats`), plus log2 histograms for validation latency, window
//!   length and ops scanned per attempt, derived from the event stream.
//! * [`chrome_trace_json`] — a `chrome://tracing`-loadable JSON export,
//!   one track per worker thread.
//! * [`text_report`] — a human report naming the top abort-causing
//!   location classes and locations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod metrics;
mod recorder;
mod report;

pub use chrome::chrome_trace_json;
pub use event::{AbortReason, CheckReason, Event, EventKind, Verdict};
pub use metrics::{Histogram, MetricsRegistry, Snapshot};
pub use recorder::{Recorder, RingHandle, ThreadTrace, Trace};
pub use report::{attribution, text_report, AbortAttribution};

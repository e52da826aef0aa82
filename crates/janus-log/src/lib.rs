//! Operation logs and per-location history decomposition for JANUS.
//!
//! A JANUS transaction executes against a privatized copy of the shared
//! state and records every shared-state access as an [`Op`] in its log
//! (`t.Log` in Figure 7). Each operation carries the read/write footprint
//! (at the key granularity of [`janus_relational::CellSet`]) that the
//! write-set approach would record — and *nothing more*: this is the
//! "projection" property of §5.3 that lets sequence-based conflict
//! detection reconstruct single-location operation sequences at no extra
//! instrumentation cost.
//!
//! The crate provides:
//!
//! * [`LocId`] / [`ClassId`] — runtime identity and *static class* of a
//!   shared location. Classes are the generalization axis: commutativity
//!   information learned for one `monitor.itemsWeight` during training
//!   applies to every location of the same class in production.
//! * [`ScalarOp`] and [`OpKind`] — memory-level operations (read, write,
//!   fetch-add) and relational ADT operations.
//! * [`Op`] — a logged operation instance with its footprint and result.
//! * [`decompose`] — the `DECOMPOSE` procedure of Figure 8, splitting a
//!   history into the dependent operation subsequences induced by each
//!   accessed location (and, within a relational object, each key).
//! * [`CommittedLog`] / [`HistoryWindow`] — committed segments carrying
//!   their decomposition (computed once, at commit time) and zero-copy
//!   windows of shared segments, the currency of the incremental
//!   validation pipeline.
//! * [`wire`] — the binary effect/value codec shared by the durable
//!   commit journal (`janus-wal`) and its recovery reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod committed;
mod decompose;
mod loc;
mod op;
pub mod wire;

pub use committed::{
    splitmix64, CommittedLog, DecomposedLoc, DecomposedLog, Fingerprint, HistoryWindow,
};
pub use decompose::{decompose, CellKey, LocHistory};
pub use loc::{ClassId, LocId, SHARD_BITS, SHARD_SPACE};
pub use op::{replay, Op, OpKind, OpResult, ScalarOp};

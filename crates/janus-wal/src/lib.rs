//! Durable commit journal for JANUS: a segmented, checksummed
//! write-ahead log over the commit-ordered effect stream.
//!
//! The runtime already produces the one artifact durability needs: a
//! totally-ordered committed schedule, ticketed by the session oracle.
//! This crate persists it. A [`Wal`] hangs off the runtime's
//! [`janus_core::CommitSink`] seam, which only frames one record per
//! commit ticket — the commit's mutating effects in `janus-log` wire
//! encoding — as `u32 len | payload | u64 fnv1a(payload)` onto a queue. One journal
//! thread per [`Wal`] takes the whole queue each turn, appends it in
//! ticket order to a userspace buffer and applies the configured
//! [`FsyncPolicy`] once: the group-commit window is exactly the suffix
//! a crash can lose. [`Wal::flush`] is the barrier that waits until
//! everything submitted before it is written and fsynced.
//!
//! [`Wal::snapshot_and_truncate`] serializes the store and its commit
//! watermark at a quiescent point, then drops every segment below the
//! watermark; [`recover`] rebuilds a store from the newest snapshot
//! plus the journal tail, exactly once per ticket, truncating a torn
//! tail (unclean shutdowns only) and failing loudly — both hashes in
//! the error — on mid-log corruption. [`FaultKind::CrashPoint`] sites
//! from `janus-fault` kill the journal deterministically at the three
//! durability boundaries ([`janus_fault::CrashSite`]) so chaos tests
//! can recover from every one.
//!
//! [`FaultKind::CrashPoint`]: janus_fault::FaultKind::CrashPoint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod recover;
mod stats;

pub use journal::{
    segment_name, snapshot_name, FsyncPolicy, Wal, WalSink, CLEAN_MAGIC, CLEAN_MARKER,
    SEGMENT_MAGIC, SNAPSHOT_MAGIC,
};
pub use recover::{recover, Recovered, WalError};
pub use stats::WalStats;

//! Task dispatch for the JANUS runtime.
//!
//! The protocol of Figure 7 dispenses tasks with a bare counter and
//! re-runs every aborted attempt immediately from scratch. That is the
//! right policy when conflicts are rare — the regime sequence-based
//! detection creates — and it is the only policy here. Two wall-clock
//! grids over the five paper loops (`BENCH_wall_contention.json`,
//! `BENCH_wall_route.json`) found no placement worth keeping beside it.
//! Immediate retry cannot starve a task: an attempt aborts only on a
//! conflict with a commit made since it began, so every abort is paid
//! for by another task's progress.
//!
//! * [`SchedulePolicy`] — a strategy, bound per run to a [`TaskSource`]
//!   the workers dispatch through. `TaskSource` is the seam: a source
//!   sees every dispatch, abort, commit and park, and may ask an abort
//!   to back off.
//!   * [`Fifo`] — the seed behavior, bit for bit: a shared atomic
//!     counter, immediate retry on abort.
//! * [`backoff::wait`] / [`Parker`] — the spin→yield→park primitive
//!   behind a non-zero [`BackoffHint`] and the ordered-commit wait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
mod policy;
mod stats;

pub use backoff::{BackoffHint, Parker};
pub use policy::{Dispatch, Fifo, SchedulePolicy, TaskSource};
pub use stats::SchedStats;

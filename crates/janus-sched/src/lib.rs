//! Task dispatch for the JANUS runtime.
//!
//! The protocol of Figure 7 dispenses tasks with a bare counter and
//! re-runs every aborted attempt immediately from scratch. That is the
//! right policy when conflicts are rare — the regime sequence-based
//! detection creates — and it stays the default here. A wall-clock grid
//! over the five paper loops (`BENCH_wall_contention.json`) found one
//! other placement worth keeping: sealed affinity lanes, for loops whose
//! conflicts the detector cannot dismiss.
//!
//! * [`SchedulePolicy`] — a pluggable strategy, bound per run to a
//!   [`TaskSource`] the workers dispatch through. `TaskSource` is the
//!   seam: a policy sees every dispatch, abort, commit and park.
//!   * [`Fifo`] — the seed behavior, bit for bit: a shared atomic
//!     counter, immediate retry on abort.
//!   * [`Affinity`] — routes tasks to workers by predicted footprint
//!     overlap (the read/write sets the trainer already mines), so
//!     likely-conflicting tasks serialize on one worker's lane instead
//!     of aborting against each other. Lanes are sealed: a worker runs
//!     only its own lane and stops when it is empty.
//! * [`backoff::wait`] / [`Parker`] — the spin→yield→park primitive
//!   behind an affinity abort's wait and the ordered-commit wait.
//!
//! Everything here is deterministic given its inputs: backoff waits are
//! a pure function of `(seed, task, attempt)`, affinity partitions are
//! a pure function of the predicted footprints, and `Fifo` preserves
//! the seed scheduler exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod backoff;
mod policy;
mod stats;

pub use affinity::{Affinity, ExactFootprints, FootprintPredictor, TrainedFootprints};
pub use backoff::{BackoffHint, Parker};
pub use policy::{Dispatch, Fifo, SchedulePolicy, TaskSource};
pub use stats::SchedStats;

//! The JANUS experiment harness: regenerates every table and figure of
//! the paper's evaluation (§7).
//!
//! * [`sim`] — a virtual-time multicore simulator used for Figure 9 when
//!   the host exposes fewer cores than the experiment needs: tasks,
//!   conflict checks and commits all execute *for real* and are timed;
//!   only the parallel timeline is simulated, with the exact Figure 7
//!   protocol semantics.
//! * [`experiments`] — drivers for Tables 5 & 6 and Figures 9–11.
//! * [`report`] — plain-text table rendering for the `figures` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod sim;

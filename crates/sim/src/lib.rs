//! # esds-sim
//!
//! A small, deterministic discrete-event simulation kernel used as the
//! network substrate for the ESDS algorithm (replacing the paper's
//! workstation network / MPI testbed, §11.1):
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time;
//! * [`EventQueue`], [`World`], [`run`] — the event loop;
//! * [`ChannelModel`] — the paper's reliable non-FIFO channels (§6.1) with
//!   the §9.3 failure modes (loss, duplication, outages);
//! * [`Histogram`] — exact latency statistics for the experiments.
//!
//! The kernel is generic over the event type: `esds-harness` instantiates it
//! with the ESDS message alphabet.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod channel;
mod metrics;
mod scheduler;
mod time;

pub use channel::{ChannelConfig, ChannelModel, ChannelStats, DelayModel};
pub use metrics::{derive_seed, Histogram};
// The bounded-histogram counterpart and the shared one-line summary
// format live in `esds-obs`; re-exported so experiment code and
// long-running services render percentiles identically without
// duplicating the format strings.
pub use esds_obs::{format_duration_us, format_latency_summary, BoundedHistogram};
pub use scheduler::{run, run_steps, EventQueue, RunStats, StopReason, World};
pub use time::{SimDuration, SimTime};

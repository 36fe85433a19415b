//! # esds-runtime
//!
//! A real multithreaded deployment of the ESDS algorithm: one OS thread
//! per replica (driving the same sans-IO [`esds_alg::Replica`] state
//! machine as the simulator) plus a network thread that injects
//! propagation delay, standing in for the paper's MPI/workstation testbed
//! (`ARCHITECTURE.md` §1 places it among the three deployments).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod service;
mod sharded;

pub use audit::{AuditSidecar, AuditTap};
pub use service::{
    DurableReplica, InspectHandle, OpFilter, ReplicaSnapshot, RuntimeClient, RuntimeConfig,
    RuntimeService,
};
pub use sharded::{ShardedClient, ShardedService};

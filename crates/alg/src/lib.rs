//! # esds-alg
//!
//! The lazy-replication algorithm of *Eventually-Serializable Data Services*
//! (paper Section 6) as sans-IO state machines, plus the Section 10
//! optimizations and the Sections 7–8 invariants as runtime checks:
//!
//! * [`Replica`] — the replica automaton (Fig. 7), with memoization
//!   (§10.1), gossip GC and local descriptor compaction (§10.2, see
//!   [`Replica::compact`]), batched gossip pruned by acknowledgements
//!   (§10.2 + §10.4, the default), and crash-recovery (§9.3);
//! * [`ReplicaConfig::commute`] + [`SafeSubmitter`] — the commutativity-
//!   exploiting variant (Fig. 11, §10.3) for `SafeUsers` workloads;
//! * [`FrontEnd`] — the client front end (Fig. 6);
//! * [`messages`] — the request/response/gossip message sets (§6.1);
//! * [`global`] — the derived whole-system variables of §6.4 (`ops`,
//!   `minlabel`, `lc`, `mc`, `sc`, `po`);
//! * [`invariants`] — Invariants 7.1–7.21, 8.1/8.3, and 10.1–10.5 as
//!   executable checks over a [`SystemView`].
//!
//! The state machines are deterministic; all scheduling (gossip timing,
//! channel behaviour) lives in the harness/runtime driving them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commute;
pub mod front_end;
pub mod global;
pub mod invariants;
pub mod messages;
pub mod persist;
pub mod replica;

pub use commute::SafeSubmitter;
pub use front_end::{ClientDelivery, FrontEnd, RelayPolicy};
pub use global::SystemView;
pub use invariants::{check_all, InvariantViolation, MonotonicityChecker};
pub use messages::{BatchedGossipMsg, GossipEnvelope, GossipMsg, RequestMsg, ResponseMsg};
pub use persist::Persistence;
pub use replica::{
    GossipStrategy, PrefixEntry, RecoveryStub, Replica, ReplicaConfig, ReplicaStats, RespondEffect,
    RestoreImage, ValueStrategy, WalDelta,
};

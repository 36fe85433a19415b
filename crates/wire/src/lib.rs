//! # esds-wire
//!
//! Binary wire protocol and TCP deployment for the eventually-serializable
//! data service. Cheiner's implementation (paper §11.1) ran the algorithm
//! over MPI on a network of Unix workstations; this crate is the analogous
//! transport layer for this reproduction: the *same* [`esds_alg::Replica`]
//! and [`esds_alg::FrontEnd`] state machines exercised by the simulator
//! and the threaded runtime, carried over real sockets.
//!
//! * [`codec`] — checked little-endian/varint primitives over [`bytes`]
//!   buffers and the [`Wire`] trait, with implementations for all core
//!   vocabulary (ids, labels, descriptors, summaries) and for every
//!   operator/value type in `esds-datatypes`;
//! * [`frame`] — length-prefixed frames with magic, version, kind and an
//!   FNV-1a checksum, plus blocking reader/writer adapters;
//! * [`message`] — the request/response/gossip message set as framed
//!   payloads, including the §10.2/§10.4 batched gossip exchange that
//!   carries `D`, `S` and its handshake as [`esds_core::IdSummary`]
//!   watermark vectors;
//! * [`tcp`] — a socket deployment: [`tcp::TcpReplicaNode`] replica
//!   servers gossiping over TCP, [`tcp::TcpClient`] front ends, and
//!   [`tcp::TcpCluster`] for launching a localhost cluster (with
//!   crash/restart, §9.3);
//! * [`chaos`] — a frame-aware fault-injecting proxy ([`ChaosProxy`]) for
//!   exercising the §9.3 loss/duplication/delay/reordering tolerance on
//!   real sockets;
//! * [`sharded`] — the sharded TCP deployment: one cluster per shard
//!   behind [`sharded::ShardedWireClient`]s that route `key → slot →
//!   shard` through the shared [`esds_core::RoutingTable`], speak
//!   `ShardedOpId`-carrying frames with a routing-table-version
//!   handshake, and resolve cross-shard `prev` constraints by awaiting
//!   the foreign shard's response over the wire;
//! * [`audit`] — an online streaming audit of a live sharded deployment:
//!   one bounded-memory [`esds_spec::StreamingChecker`] per shard, fed
//!   the externally visible trace plus each shard's *final* stable
//!   watermark (the label order truncated just past the last operation
//!   known stable everywhere), certifying Theorems 5.7/5.8 as the
//!   system runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod chaos;
pub mod codec;
pub mod frame;
pub mod message;
pub mod sharded;
pub mod tcp;

mod error;

pub use audit::{ShardViolation, ShardedWireAuditor};
pub use chaos::{ChaosConfig, ChaosProxy};
pub use codec::Wire;
pub use error::WireError;
pub use frame::{read_frame, write_frame, Frame, FrameKind, MAX_FRAME_LEN};
pub use message::{
    decode_message, encode_message, ShardedRequestMsg, ShardedResponseMsg, StabilityInfoMsg,
    WireMessage,
};
pub use sharded::{
    ChaosStats, ShardedWireClient, ShardedWireConfig, ShardedWireService, WholeObjectUnsupported,
};
pub use tcp::{
    AddrTable, NodeObs, StabilitySnapshot, TcpClient, TcpCluster, TcpClusterConfig, TcpReplicaNode,
};

//! The algorithm's message set as framed wire payloads.
//!
//! [`WireMessage`] covers the three message sets of paper §6.1 — gossip
//! both as the full snapshot and as the §10.2/§10.4 batch whose `D`, `S`
//! and handshake travel as [`IdSummary`] watermark vectors — plus the
//! transport-level extras: a connection [`Hello`](WireMessage::Hello)
//! preamble, the sharded request/response pair, and the stability and
//! metrics probes.

use bytes::{Buf, BufMut, BytesMut};
use esds_alg::{BatchedGossipMsg, GossipMsg, RequestMsg, ResponseMsg};
use esds_core::{ClientId, IdSummary, OpDescriptor, OpId, ReplicaId, RoutingTable, ShardedOpId};

use crate::codec::{get_u8, Wire};
use crate::error::WireError;
use crate::frame::{encode_frame, Frame, FrameKind};

/// Who is speaking on a freshly opened connection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HelloId {
    /// A client front end.
    Client(ClientId),
    /// A peer replica (gossip connection).
    Replica(ReplicaId),
}

impl Wire for HelloId {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            HelloId::Client(c) => {
                buf.put_u8(0);
                c.encode(buf);
            }
            HelloId::Replica(r) => {
                buf.put_u8(1);
                r.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match get_u8(buf, "HelloId")? {
            0 => Ok(HelloId::Client(ClientId::decode(buf)?)),
            1 => Ok(HelloId::Replica(ReplicaId::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                context: "HelloId",
                tag,
            }),
        }
    }
}

impl<O: Wire> Wire for RequestMsg<O> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.desc.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(RequestMsg {
            desc: OpDescriptor::decode(buf)?,
        })
    }
}

impl<V: Wire> Wire for ResponseMsg<V> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.id.encode(buf);
        self.value.encode(buf);
        self.witness.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(ResponseMsg {
            id: OpId::decode(buf)?,
            value: V::decode(buf)?,
            witness: Option::decode(buf)?,
        })
    }
}

impl<O: Wire> Wire for GossipMsg<O> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.from.encode(buf);
        self.rcvd.encode(buf);
        self.done.encode(buf);
        self.labels.encode(buf);
        self.stable.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(GossipMsg {
            from: ReplicaId::decode(buf)?,
            rcvd: Vec::decode(buf)?,
            done: Vec::decode(buf)?,
            labels: Vec::decode(buf)?,
            stable: Vec::decode(buf)?,
        })
    }
}

impl<O: Wire> Wire for BatchedGossipMsg<O> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.from.encode(buf);
        self.incarnation.encode(buf);
        self.acked.encode(buf);
        self.rcvd.encode(buf);
        self.done.encode(buf);
        self.labels.encode(buf);
        self.stable.encode(buf);
        self.known.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(BatchedGossipMsg {
            from: ReplicaId::decode(buf)?,
            incarnation: u64::decode(buf)?,
            acked: u64::decode(buf)?,
            rcvd: Vec::decode(buf)?,
            done: IdSummary::decode(buf)?,
            labels: Vec::decode(buf)?,
            stable: IdSummary::decode(buf)?,
            known: IdSummary::decode(buf)?,
        })
    }
}

/// A sharded-deployment request (client → a shard's relay replica).
///
/// Carries the client's **global** identifier alongside the per-shard
/// descriptor, plus the [`RoutingTable`] version the client routed the
/// operation under — the routing-table-version handshake. A node whose
/// deployment is at a different version refuses the descriptor (it never
/// reaches the replica state machine) and answers with
/// [`ShardedResponseMsg::Nak`] carrying the authoritative table, so a
/// stale client re-routes instead of reading or writing the wrong shard.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardedRequestMsg<O> {
    /// The routing-table version the sender routed under.
    pub version: u64,
    /// The operation's identity in the service-global namespace.
    pub global: ShardedOpId,
    /// The per-shard descriptor (local id, operator, same-shard `prev`,
    /// strictness) handed to the shard's protocol if the version matches.
    pub desc: OpDescriptor<O>,
}

impl<O: Wire> Wire for ShardedRequestMsg<O> {
    fn encode(&self, buf: &mut impl BufMut) {
        self.version.encode(buf);
        self.global.encode(buf);
        self.desc.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(ShardedRequestMsg {
            version: u64::decode(buf)?,
            global: ShardedOpId::decode(buf)?,
            desc: OpDescriptor::decode(buf)?,
        })
    }
}

/// A sharded-deployment response (a shard's relay replica → client).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardedResponseMsg<V> {
    /// The operation was accepted and answered by its shard.
    Ok {
        /// The service-global identity the request carried.
        global: ShardedOpId,
        /// The shard-local response (local id, value, optional witness).
        resp: ResponseMsg<V>,
    },
    /// Version-mismatch NAK: the request was **refused** before reaching
    /// the replica (nothing was applied). The authoritative table rides
    /// along so the client can adopt it and re-route.
    Nak {
        /// The refused operation.
        global: ShardedOpId,
        /// The deployment's current routing table.
        table: RoutingTable,
    },
}

impl<V: Wire> Wire for ShardedResponseMsg<V> {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            ShardedResponseMsg::Ok { global, resp } => {
                buf.put_u8(0);
                global.encode(buf);
                resp.encode(buf);
            }
            ShardedResponseMsg::Nak { global, table } => {
                buf.put_u8(1);
                global.encode(buf);
                table.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        match get_u8(buf, "ShardedResponseMsg")? {
            0 => Ok(ShardedResponseMsg::Ok {
                global: ShardedOpId::decode(buf)?,
                resp: ResponseMsg::decode(buf)?,
            }),
            1 => Ok(ShardedResponseMsg::Nak {
                global: ShardedOpId::decode(buf)?,
                table: RoutingTable::decode(buf)?,
            }),
            tag => Err(WireError::InvalidTag {
                context: "ShardedResponseMsg",
                tag,
            }),
        }
    }
}

/// A replica's stability knowledge, answered to a
/// [`WireMessage::StabilityQuery`] — the wire form of the node's
/// `StabilitySnapshot`. A barrier-strict gathered query snapshots the
/// relay's `order` as the shard's answered frontier and polls until
/// `stable_everywhere` covers it (see `esds_wire::ShardedWireClient`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StabilityInfoMsg {
    /// The replica's local label order (ids only).
    pub order: Vec<OpId>,
    /// Operations the replica knows are stable at every replica.
    pub stable_everywhere: Vec<OpId>,
}

impl Wire for StabilityInfoMsg {
    fn encode(&self, buf: &mut impl BufMut) {
        self.order.encode(buf);
        self.stable_everywhere.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(StabilityInfoMsg {
            order: Vec::decode(buf)?,
            stable_everywhere: Vec::decode(buf)?,
        })
    }
}

impl Wire for esds_obs::HistogramSummary {
    fn encode(&self, buf: &mut impl BufMut) {
        self.count.encode(buf);
        self.mean.encode(buf);
        self.p50.encode(buf);
        self.p95.encode(buf);
        self.p99.encode(buf);
        self.max.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(esds_obs::HistogramSummary {
            count: u64::decode(buf)?,
            mean: u64::decode(buf)?,
            p50: u64::decode(buf)?,
            p95: u64::decode(buf)?,
            p99: u64::decode(buf)?,
            max: u64::decode(buf)?,
        })
    }
}

impl Wire for esds_obs::MetricsSnapshot {
    fn encode(&self, buf: &mut impl BufMut) {
        self.counters.encode(buf);
        self.gauges.encode(buf);
        self.histograms.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(esds_obs::MetricsSnapshot {
            counters: Vec::decode(buf)?,
            gauges: Vec::decode(buf)?,
            histograms: Vec::decode(buf)?,
        })
    }
}

/// Any message the transport can carry, tagged by [`FrameKind`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireMessage<O, V> {
    /// Front end → replica.
    Request(RequestMsg<O>),
    /// Replica → front end.
    Response(ResponseMsg<V>),
    /// Replica → replica, plain encoding.
    Gossip(GossipMsg<O>),
    /// Replica → replica, §10.4 batched exchange (deltas + watermark
    /// handshake).
    GossipBatched(BatchedGossipMsg<O>),
    /// Connection preamble.
    Hello(HelloId),
    /// Sharded client → shard relay replica (global id + table version).
    ShardedRequest(ShardedRequestMsg<O>),
    /// Shard relay replica → sharded client (answer or version NAK).
    ShardedResponse(ShardedResponseMsg<V>),
    /// Client → replica: probe stability knowledge (no payload).
    StabilityQuery,
    /// Replica → client: the probed stability knowledge.
    StabilityInfo(StabilityInfoMsg),
    /// Client → node: request the process-wide metrics snapshot (no
    /// payload).
    MetricsQuery,
    /// Node → client: the registry snapshot at query time.
    MetricsInfo(esds_obs::MetricsSnapshot),
}

/// Encodes a message as a complete frame appended to `out`.
pub fn encode_message<O: Wire, V: Wire>(msg: &WireMessage<O, V>, out: &mut BytesMut) {
    let mut payload = BytesMut::new();
    let kind = match msg {
        WireMessage::Request(m) => {
            m.encode(&mut payload);
            FrameKind::Request
        }
        WireMessage::Response(m) => {
            m.encode(&mut payload);
            FrameKind::Response
        }
        WireMessage::Gossip(m) => {
            m.encode(&mut payload);
            FrameKind::Gossip
        }
        WireMessage::GossipBatched(m) => {
            m.encode(&mut payload);
            FrameKind::GossipBatched
        }
        WireMessage::Hello(h) => {
            h.encode(&mut payload);
            FrameKind::Hello
        }
        WireMessage::ShardedRequest(m) => {
            m.encode(&mut payload);
            FrameKind::ShardedRequest
        }
        WireMessage::ShardedResponse(m) => {
            m.encode(&mut payload);
            FrameKind::ShardedResponse
        }
        WireMessage::StabilityQuery => FrameKind::StabilityQuery,
        WireMessage::StabilityInfo(m) => {
            m.encode(&mut payload);
            FrameKind::StabilityInfo
        }
        WireMessage::MetricsQuery => FrameKind::MetricsQuery,
        WireMessage::MetricsInfo(m) => {
            m.encode(&mut payload);
            FrameKind::MetricsInfo
        }
    };
    encode_frame(kind, &payload, out);
}

/// Decodes a checksum-verified frame into a message.
///
/// # Errors
///
/// Returns [`WireError`] if the payload is malformed for the frame's kind.
pub fn decode_message<O: Wire, V: Wire>(frame: &Frame) -> Result<WireMessage<O, V>, WireError> {
    let mut buf = frame.payload.clone();
    let msg = match frame.kind {
        FrameKind::Request => WireMessage::Request(RequestMsg::decode(&mut buf)?),
        FrameKind::Response => WireMessage::Response(ResponseMsg::decode(&mut buf)?),
        FrameKind::Gossip => WireMessage::Gossip(GossipMsg::decode(&mut buf)?),
        FrameKind::GossipBatched => WireMessage::GossipBatched(BatchedGossipMsg::decode(&mut buf)?),
        FrameKind::Hello => WireMessage::Hello(HelloId::decode(&mut buf)?),
        FrameKind::ShardedRequest => {
            WireMessage::ShardedRequest(ShardedRequestMsg::decode(&mut buf)?)
        }
        FrameKind::ShardedResponse => {
            WireMessage::ShardedResponse(ShardedResponseMsg::decode(&mut buf)?)
        }
        FrameKind::StabilityQuery => WireMessage::StabilityQuery,
        FrameKind::StabilityInfo => WireMessage::StabilityInfo(StabilityInfoMsg::decode(&mut buf)?),
        FrameKind::MetricsQuery => WireMessage::MetricsQuery,
        FrameKind::MetricsInfo => {
            WireMessage::MetricsInfo(esds_obs::MetricsSnapshot::decode(&mut buf)?)
        }
    };
    if buf.has_remaining() {
        return Err(WireError::InvalidTag {
            context: "trailing",
            tag: buf.chunk()[0],
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_frame;
    use esds_core::Label;
    use esds_datatypes::{CounterOp, CounterValue};

    type Msg = WireMessage<CounterOp, CounterValue>;

    fn id(c: u32, s: u64) -> OpId {
        OpId::new(ClientId(c), s)
    }

    fn roundtrip(msg: Msg) {
        let mut buf = BytesMut::new();
        encode_message(&msg, &mut buf);
        let frame = decode_frame(&mut buf).unwrap().unwrap();
        let back: Msg = decode_message(&frame).unwrap();
        assert_eq!(back, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(Msg::Request(RequestMsg {
            desc: OpDescriptor::new(id(0, 0), CounterOp::Increment(5))
                .with_prev([id(1, 3)])
                .with_strict(true),
        }));
    }

    #[test]
    fn response_roundtrip() {
        roundtrip(Msg::Response(ResponseMsg {
            id: id(2, 9),
            value: CounterValue::Count(-4),
            witness: Some(vec![id(0, 0), id(2, 9)]),
        }));
    }

    #[test]
    fn gossip_roundtrip() {
        roundtrip(Msg::Gossip(GossipMsg {
            from: ReplicaId(1),
            rcvd: vec![OpDescriptor::new(id(0, 0), CounterOp::Double)],
            done: vec![id(0, 0)],
            labels: vec![(id(0, 0), Label::new(1, ReplicaId(1)))],
            stable: vec![],
        }));
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Msg::Hello(HelloId::Replica(ReplicaId(2))));
        roundtrip(Msg::Hello(HelloId::Client(ClientId(77))));
    }

    #[test]
    fn sharded_request_roundtrip() {
        roundtrip(Msg::ShardedRequest(ShardedRequestMsg {
            version: 3,
            global: ShardedOpId::new(ClientId(4), 17),
            desc: OpDescriptor::new(id(4, 2), CounterOp::Increment(-9))
                .with_prev([id(4, 1)])
                .with_strict(true),
        }));
    }

    #[test]
    fn sharded_response_roundtrip() {
        roundtrip(Msg::ShardedResponse(ShardedResponseMsg::Ok {
            global: ShardedOpId::new(ClientId(1), 0),
            resp: ResponseMsg {
                id: id(1, 0),
                value: CounterValue::Count(12),
                witness: Some(vec![id(0, 0), id(1, 0)]),
            },
        }));
        let mut table = RoutingTable::uniform(2);
        table.apply(&esds_core::MigrationPlan::add_shard(&table));
        roundtrip(Msg::ShardedResponse(ShardedResponseMsg::Nak {
            global: ShardedOpId::new(ClientId(1), 5),
            table,
        }));
    }

    #[test]
    fn stability_roundtrip() {
        roundtrip(Msg::StabilityQuery);
        roundtrip(Msg::StabilityInfo(StabilityInfoMsg {
            order: vec![id(0, 0), id(1, 3), id(0, 1)],
            stable_everywhere: vec![id(0, 0), id(1, 3)],
        }));
        roundtrip(Msg::StabilityInfo(StabilityInfoMsg {
            order: vec![],
            stable_everywhere: vec![],
        }));
    }

    #[test]
    fn metrics_roundtrip() {
        roundtrip(Msg::MetricsQuery);
        roundtrip(Msg::MetricsInfo(esds_obs::MetricsSnapshot::default()));
        let reg = esds_obs::MetricsRegistry::new();
        reg.counter("shard0/replica1/requests").add(7);
        reg.gauge("shard0/watermark_age_ms").set(42);
        for v in [3u64, 900, 15_000] {
            reg.histogram("shard0/replica0/wal/sync_us").record(v);
        }
        roundtrip(Msg::MetricsInfo(reg.snapshot()));
    }

    #[test]
    fn batched_gossip_roundtrip() {
        roundtrip(Msg::GossipBatched(BatchedGossipMsg {
            from: ReplicaId(2),
            incarnation: 3,
            acked: 1,
            rcvd: vec![OpDescriptor::new(id(0, 2), CounterOp::Increment(3)).with_prev([id(0, 1)])],
            done: IdSummary::from_ids((0..40).map(|s| id(0, s))),
            labels: vec![(id(0, 2), Label::new(7, ReplicaId(2)))],
            stable: IdSummary::from_ids((0..39).map(|s| id(0, s))),
            known: IdSummary::from_ids([id(0, 0), id(0, 1), id(0, 2), id(1, 5)]),
        }));
    }

    #[test]
    fn batched_wire_encoding_stays_compact_on_dense_history() {
        // 1000 ids from 4 clients: a batched steady-state exchange
        // (nothing unacknowledged, summaries + handshake only) encodes
        // orders of magnitude below the snapshot.
        let ids: IdSummary = (0..4)
            .flat_map(|c| (0..250).map(move |s| id(c, s)))
            .collect();
        let b: BatchedGossipMsg<CounterOp> = BatchedGossipMsg {
            from: ReplicaId(0),
            incarnation: 0,
            acked: 0,
            rcvd: vec![],
            done: ids.clone(),
            labels: vec![],
            stable: ids.clone(),
            known: ids.clone(),
        };
        let g: GossipMsg<CounterOp> = GossipMsg {
            from: ReplicaId(0),
            rcvd: vec![],
            done: ids.iter().collect(),
            labels: vec![],
            stable: ids.iter().collect(),
        };
        let batched_len = {
            let mut buf = BytesMut::new();
            encode_message::<_, CounterValue>(&Msg::GossipBatched(b), &mut buf);
            buf.len()
        };
        let plain_len = {
            let mut buf = BytesMut::new();
            encode_message::<_, CounterValue>(&Msg::Gossip(g), &mut buf);
            buf.len()
        };
        assert!(batched_len * 20 < plain_len, "{batched_len} vs {plain_len}");
    }
}

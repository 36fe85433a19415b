//! Property and exhaustiveness tests for the wire protocol: every
//! [`FrameKind`] round-trips through a full encode→decode cycle
//! (including the sharded frames), and the `ShardedOpId`-carrying
//! framing survives arbitrary identifiers, descriptors, and tables.
//!
//! This suite runs in the release-mode `proptests` CI job at a high case
//! count; the exhaustive frame test is deterministic but lives here so
//! protocol changes get the same release-mode treatment.

use bytes::BytesMut;
use esds_core::{
    ClientId, IdSummary, Label, MigrationPlan, OpDescriptor, OpId, ReplicaId, RoutingTable,
    ShardedOpId,
};
use esds_datatypes::{KvOp, KvValue};
use esds_wire::message::{HelloId, ShardedRequestMsg, ShardedResponseMsg};
use esds_wire::{decode_message, encode_message, Frame, FrameKind, Wire, WireMessage};
use proptest::prelude::*;

type Msg = WireMessage<KvOp, KvValue>;

fn id(c: u32, s: u64) -> OpId {
    OpId::new(ClientId(c), s)
}

fn roundtrip(msg: Msg) {
    let mut buf = BytesMut::new();
    encode_message(&msg, &mut buf);
    let frame = esds_wire::frame::decode_frame(&mut buf).unwrap().unwrap();
    let back: Msg = decode_message(&frame).unwrap();
    assert_eq!(back, msg);
    assert!(buf.is_empty(), "frame must consume exactly its bytes");
}

/// One representative message per frame kind.
fn message_of(kind: FrameKind) -> Msg {
    let desc = OpDescriptor::new(id(1, 2), KvOp::put("k", "v"))
        .with_prev([id(1, 0), id(2, 9)])
        .with_strict(true);
    match kind {
        FrameKind::Request => Msg::Request(esds_alg::RequestMsg { desc }),
        FrameKind::Response => Msg::Response(esds_alg::ResponseMsg {
            id: id(1, 2),
            value: KvValue::Value(Some("v".into())),
            witness: Some(vec![id(1, 0), id(1, 2)]),
        }),
        FrameKind::Gossip => Msg::Gossip(esds_alg::GossipMsg {
            from: ReplicaId(1),
            rcvd: vec![desc],
            done: vec![id(1, 0)],
            labels: vec![(id(1, 0), Label::new(4, ReplicaId(1)))],
            stable: vec![id(1, 0)],
        }),
        FrameKind::Hello => Msg::Hello(HelloId::Client(ClientId(7))),
        FrameKind::GossipBatched => Msg::GossipBatched(esds_alg::BatchedGossipMsg {
            from: ReplicaId(2),
            incarnation: 1,
            acked: 2,
            rcvd: vec![desc],
            done: IdSummary::from_ids((0..10).map(|s| id(0, s))),
            labels: vec![(id(0, 3), Label::new(9, ReplicaId(2)))],
            stable: IdSummary::from_ids((0..9).map(|s| id(0, s))),
            known: IdSummary::from_ids([id(0, 0), id(1, 5)]),
        }),
        FrameKind::ShardedRequest => Msg::ShardedRequest(ShardedRequestMsg {
            version: 3,
            global: ShardedOpId::new(ClientId(1), 40),
            desc,
        }),
        FrameKind::ShardedResponse => {
            let mut table = RoutingTable::uniform(2);
            table.apply(&MigrationPlan::add_shard(&table));
            Msg::ShardedResponse(ShardedResponseMsg::Nak {
                global: ShardedOpId::new(ClientId(1), 40),
                table,
            })
        }
        FrameKind::StabilityQuery => Msg::StabilityQuery,
        FrameKind::StabilityInfo => Msg::StabilityInfo(esds_wire::StabilityInfoMsg {
            order: vec![id(0, 0), id(1, 3), id(0, 1)],
            stable_everywhere: vec![id(0, 0), id(1, 3)],
        }),
        FrameKind::MetricsQuery => Msg::MetricsQuery,
        FrameKind::MetricsInfo => {
            let reg = esds_obs::MetricsRegistry::new();
            reg.counter("replica0/requests").add(17);
            reg.gauge("replica0/unstable_window").set(3);
            reg.histogram("replica0/sync_us").record(250);
            Msg::MetricsInfo(reg.snapshot())
        }
    }
}

#[test]
fn every_frame_kind_round_trips() {
    // FrameKind::ALL is pinned exhaustive by the frame module's unit
    // tests; here every kind goes through the full message → frame →
    // bytes → frame → message cycle. Adding a FrameKind variant without
    // extending `message_of` fails to compile (the match is exhaustive),
    // so the coverage cannot silently rot.
    for kind in FrameKind::ALL {
        let msg = message_of(kind);
        let mut buf = BytesMut::new();
        encode_message(&msg, &mut buf);
        assert_eq!(buf[3], kind as u8, "frame tagged with its kind");
        roundtrip(message_of(kind));
    }
}

#[test]
fn sharded_ok_response_round_trips() {
    roundtrip(Msg::ShardedResponse(ShardedResponseMsg::Ok {
        global: ShardedOpId::new(ClientId(0), 0),
        resp: esds_alg::ResponseMsg {
            id: id(0, 0),
            value: KvValue::Ack,
            witness: None,
        },
    }));
}

fn arb_sharded_id() -> impl Strategy<Value = ShardedOpId> {
    (any::<u32>(), any::<u64>()).prop_map(|(c, s)| ShardedOpId::new(ClientId(c), s))
}

fn arb_table() -> impl Strategy<Value = RoutingTable> {
    // A uniform table advanced by 0–3 add-shard migrations: every table
    // a real deployment can publish in a NAK.
    (1u32..6, 0usize..4).prop_map(|(n, grows)| {
        let mut t = RoutingTable::uniform(n);
        for _ in 0..grows {
            t.apply(&MigrationPlan::add_shard(&t));
        }
        t
    })
}

proptest! {
    /// `ShardedOpId` framing is lossless for arbitrary identifiers.
    #[test]
    fn sharded_id_roundtrip(g in arb_sharded_id()) {
        let bytes = g.to_wire_bytes();
        prop_assert_eq!(ShardedOpId::from_wire_bytes(&bytes).unwrap(), g);
    }

    /// Whole `ShardedRequest` frames survive arbitrary ids, versions,
    /// prev sets, and strictness.
    #[test]
    fn sharded_request_framing_roundtrip(
        g in arb_sharded_id(),
        version in any::<u64>(),
        local in (0u32..8, 0u64..1000),
        prevs in proptest::collection::btree_set((0u32..8, 0u64..1000), 0..6),
        strict in any::<bool>(),
        key in "[a-z]{1,8}",
        value in "[a-z]{0,8}",
    ) {
        let desc = OpDescriptor::new(id(local.0, local.1), KvOp::put(&key, &value))
            .with_prev(prevs.into_iter().map(|(c, s)| id(c, s)))
            .with_strict(strict);
        roundtrip(Msg::ShardedRequest(ShardedRequestMsg { version, global: g, desc }));
    }

    /// NAK frames carry any publishable routing table losslessly.
    #[test]
    fn nak_table_roundtrip(g in arb_sharded_id(), table in arb_table()) {
        roundtrip(Msg::ShardedResponse(ShardedResponseMsg::Nak { global: g, table }));
    }

    /// Random byte soup never panics the sharded-message decoders.
    #[test]
    fn sharded_decoders_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = ShardedRequestMsg::<KvOp>::from_wire_bytes(&bytes);
        let _ = ShardedResponseMsg::<KvValue>::from_wire_bytes(&bytes);
        let _ = RoutingTable::from_wire_bytes(&bytes);
        // And via the frame path, for each sharded kind.
        for kind in [FrameKind::ShardedRequest, FrameKind::ShardedResponse] {
            let frame = Frame { kind, payload: bytes::Bytes::from(bytes.clone()) };
            let _ = decode_message::<KvOp, KvValue>(&frame);
        }
    }
}

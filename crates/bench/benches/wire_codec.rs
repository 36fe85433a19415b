//! Criterion micro-benchmarks for the wire codec (esds-wire): encoding
//! and decoding gossip messages at several sizes, the full snapshot vs
//! the §10.2/§10.4 batched exchange, plus frame checksumming. These are
//! the per-message costs a TCP deployment pays on every gossip tick.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use esds_alg::{BatchedGossipMsg, GossipMsg};
use esds_core::{ClientId, IdSummary, Label, OpDescriptor, OpId, ReplicaId};
use esds_datatypes::{CounterOp, CounterValue};
use esds_wire::{decode_message, encode_message, read_frame, WireMessage};

type Msg = WireMessage<CounterOp, CounterValue>;

/// A steady-state gossip message over `n` operations from 4 clients:
/// everything done and labeled, four fifths already stable.
fn gossip_of(n: usize) -> GossipMsg<CounterOp> {
    let ids: Vec<OpId> = (0..n)
        .map(|k| OpId::new(ClientId((k % 4) as u32), (k / 4) as u64))
        .collect();
    GossipMsg {
        from: ReplicaId(0),
        rcvd: ids
            .iter()
            .map(|id| OpDescriptor::new(*id, CounterOp::Increment(1)))
            .collect(),
        done: ids.clone(),
        labels: ids
            .iter()
            .enumerate()
            .map(|(k, id)| (*id, Label::new(k as u64, ReplicaId(0))))
            .collect(),
        stable: ids.iter().take(n * 4 / 5).copied().collect(),
    }
}

/// The batched exchange over the same state, to a peer that acknowledged
/// everything stable: `R` and `L` carry only the unstable fifth, `D`,
/// `S` and the handshake travel as summaries.
fn batched_of(n: usize) -> BatchedGossipMsg<CounterOp> {
    let g = gossip_of(n);
    let stable: IdSummary = g.stable.iter().copied().collect();
    BatchedGossipMsg {
        from: g.from,
        incarnation: 0,
        acked: 0,
        rcvd: g
            .rcvd
            .into_iter()
            .filter(|d| !stable.contains(d.id))
            .collect(),
        done: g.done.iter().copied().collect(),
        labels: g
            .labels
            .into_iter()
            .filter(|(id, _)| !stable.contains(*id))
            .collect(),
        known: g.done.iter().copied().collect(),
        stable,
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for n in [16usize, 128, 1024] {
        let plain = Msg::Gossip(gossip_of(n));
        let batched = Msg::GossipBatched(batched_of(n));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gossip_plain", n), &plain, |b, msg| {
            let mut buf = BytesMut::with_capacity(64 * 1024);
            b.iter(|| {
                buf.clear();
                encode_message(msg, &mut buf);
                buf.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("gossip_batched", n), &batched, |b, msg| {
            let mut buf = BytesMut::with_capacity(64 * 1024);
            b.iter(|| {
                buf.clear();
                encode_message(msg, &mut buf);
                buf.len()
            });
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_decode");
    for n in [16usize, 128, 1024] {
        let mut buf = BytesMut::new();
        encode_message(&Msg::Gossip(gossip_of(n)), &mut buf);
        let bytes = buf.freeze().to_vec();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("gossip_plain", n), &bytes, |b, bytes| {
            b.iter(|| {
                let mut r = &bytes[..];
                let frame = read_frame(&mut r).expect("io").expect("frame");
                let msg: Msg = decode_message(&frame).expect("decode");
                msg
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);

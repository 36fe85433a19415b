//! Gossip-processing cost: how long a replica takes to merge an incoming
//! `(R, D, L, S)` snapshot, as a function of how many operations it
//! carries (the §10.4 motivation for batched gossip).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use esds_alg::{Replica, ReplicaConfig};
use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId, SerialDataType};

#[derive(Clone, Copy, Debug)]
struct Ctr;
#[derive(Clone, PartialEq, Eq, Debug)]
enum Op {
    Inc,
}
impl SerialDataType for Ctr {
    type State = i64;
    type Operator = Op;
    type Value = i64;
    fn initial_state(&self) -> i64 {
        0
    }
    fn apply(&self, s: &i64, _op: &Op) -> (i64, i64) {
        (s + 1, s + 1)
    }
}

/// Builds a sender replica with `n` done ops and returns (receiver, msg).
fn prepared(n: u64) -> (Replica<Ctr>, esds_alg::GossipMsg<Op>) {
    let mut sender = Replica::new(Ctr, ReplicaId(0), 2, ReplicaConfig::basic());
    for i in 0..n {
        let _ = sender.on_request(OpDescriptor::new(OpId::new(ClientId(0), i), Op::Inc));
    }
    let msg = sender.make_gossip(ReplicaId(1));
    let receiver = Replica::new(Ctr, ReplicaId(1), 2, ReplicaConfig::basic());
    (receiver, msg)
}

fn bench_gossip_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip_apply_cold");
    for n in [10u64, 100, 1_000] {
        let (receiver, msg) = prepared(n);
        group.bench_function(format!("ops_{n}"), |b| {
            b.iter_batched(
                || (receiver.clone(), msg.clone()),
                |(mut r, m)| r.on_gossip(m),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // Re-applying the same snapshot (the steady-state full-gossip case):
    // everything is already merged, so this measures the dedup overhead
    // the incremental strategy avoids.
    let mut group = c.benchmark_group("gossip_apply_warm");
    for n in [100u64, 1_000] {
        let (mut receiver, msg) = prepared(n);
        let _ = receiver.on_gossip(msg.clone());
        group.bench_function(format!("ops_{n}"), |b| {
            b.iter_batched(
                || (receiver.clone(), msg.clone()),
                |(mut r, m)| r.on_gossip(m),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gossip_apply);
criterion_main!(benches);

//! Section 10 optimizations: each variant must deliver byte-identical
//! responses to the base algorithm under the same deterministic schedule,
//! while measurably doing less work (fewer recomputation applies, smaller
//! gossip).

use esds::datatypes::{Counter, CounterOp, GSet, GSetOp};
use esds::harness::{SimSystem, SystemConfig};
use esds::spec::check_converged;
use esds_alg::{GossipStrategy, ReplicaConfig, SafeSubmitter};
use esds_core::OpId;
use esds_sim::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs the same seeded workload under a replica config; returns the
/// deduplicated (id → value) map and the final states.
fn run_counter(
    replica: ReplicaConfig,
    seed: u64,
) -> (
    std::collections::BTreeMap<OpId, esds::datatypes::CounterValue>,
    Vec<i64>,
    Vec<esds_alg::ReplicaStats>,
) {
    let cfg = SystemConfig::new(3).with_seed(seed).with_replica(replica);
    let mut sys = SimSystem::new(Counter, cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let clients: Vec<_> = (0..3).map(|i| sys.add_client(i)).collect();
    let mut last: Option<OpId> = None;
    for i in 0..30 {
        let c = clients[i % clients.len()];
        let op = if rng.gen_bool(0.5) {
            CounterOp::Increment(1)
        } else {
            CounterOp::Read
        };
        let prev: Vec<OpId> = if rng.gen_bool(0.3) {
            last.into_iter().collect()
        } else {
            Vec::new()
        };
        last = Some(sys.submit(c, op, &prev, rng.gen_bool(0.25)));
        sys.run_for(SimDuration::from_millis(7));
    }
    sys.run_until_quiescent();
    let responses = sys
        .responses_log()
        .iter()
        .map(|(id, v, _)| (*id, v.clone()))
        .collect();
    (responses, sys.replica_states(), sys.replica_stats())
}

#[test]
fn memoization_is_transparent_and_cheaper() {
    for seed in [1, 7, 23] {
        let (r_basic, s_basic, stats_basic) = run_counter(ReplicaConfig::basic(), seed);
        let (r_memo, s_memo, stats_memo) = run_counter(ReplicaConfig::default(), seed);
        assert_eq!(
            r_basic, r_memo,
            "seed {seed}: memoization changed responses"
        );
        assert_eq!(s_basic, s_memo);
        let applies_basic: u64 = stats_basic.iter().map(|s| s.response_applies).sum();
        let applies_memo: u64 = stats_memo.iter().map(|s| s.response_applies).sum();
        assert!(
            applies_memo < applies_basic,
            "seed {seed}: memoization did not reduce applies ({applies_memo} vs {applies_basic})"
        );
    }
}

fn full() -> ReplicaConfig {
    ReplicaConfig::default().with_gossip(GossipStrategy::Full)
}

#[test]
fn batched_gossip_matches_full_and_sends_less() {
    for seed in [2, 9] {
        let (r_full, s_full, _) = run_counter(full(), seed);
        let (r_batched, s_batched, _) = run_counter(ReplicaConfig::default(), seed);
        assert_eq!(
            r_full, r_batched,
            "seed {seed}: batched gossip changed responses"
        );
        assert_eq!(s_full, s_batched);
    }
    // Byte accounting (same workload, both to convergence).
    let bytes = |replica: ReplicaConfig| -> u64 {
        let cfg = SystemConfig::new(3).with_seed(4).with_replica(replica);
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        for _ in 0..20 {
            sys.submit(c, CounterOp::Increment(1), &[], false);
            sys.run_for(SimDuration::from_millis(10));
        }
        sys.run_until_quiescent();
        sys.gossip_traffic().1
    };
    let full = bytes(full());
    let batched = bytes(ReplicaConfig::default());
    assert!(
        batched * 2 < full,
        "batched gossip should cut gossip bytes at least in half: {batched} vs {full}"
    );
}

#[test]
fn gc_gossip_matches_full_and_sends_less() {
    for seed in [5, 12] {
        let (r_full, s_full, _) = run_counter(full(), seed);
        let (r_gc, s_gc, _) = run_counter(full().with_gc(), seed);
        assert_eq!(r_full, r_gc, "seed {seed}: GC changed responses");
        assert_eq!(s_full, s_gc);
    }
}

#[test]
fn commute_variant_matches_on_safeusers_workload() {
    let run = |replica: ReplicaConfig| {
        let cfg = SystemConfig::new(3).with_seed(6).with_replica(replica);
        let mut sys = SimSystem::new(GSet, cfg);
        let mut safe = SafeSubmitter::new(GSet);
        let mut rng = SmallRng::seed_from_u64(88);
        let clients: Vec<_> = (0..2).map(|i| sys.add_client(i)).collect();
        for i in 0..40u64 {
            let c = clients[(i % 2) as usize];
            let op = if rng.gen_bool(0.4) {
                GSetOp::Contains(rng.gen_range(0..10))
            } else {
                GSetOp::Add(rng.gen_range(0..10))
            };
            let prev = safe.prev_for(&op);
            let strict = i % 6 == 0;
            let id = sys.submit(
                c,
                op.clone(),
                &prev.iter().copied().collect::<Vec<_>>(),
                strict,
            );
            safe.record_with_prev(id, op, prev);
            sys.run_for(SimDuration::from_millis(5));
        }
        sys.run_until_quiescent();
        let responses: std::collections::BTreeMap<_, _> = sys
            .responses_log()
            .iter()
            .map(|(id, v, _)| (*id, v.clone()))
            .collect();
        (responses, sys.replica_states(), sys.replica_stats())
    };
    let (r_std, s_std, _) = run(ReplicaConfig::default());
    let (r_com, s_com, stats_com) = run(ReplicaConfig::commute());
    assert_eq!(r_std, r_com, "Commute changed responses under SafeUsers");
    assert_eq!(s_std, s_com);
    // The Commute variant never recomputes responses from history.
    let recompute: u64 = stats_com.iter().map(|s| s.response_applies).sum();
    assert_eq!(recompute, 0, "Commute must answer from cs_r / memo only");
}

#[test]
fn broadcast_gossip_converges_with_fewer_messages() {
    let run = |broadcast: bool| -> (u64, Vec<i64>) {
        let mut cfg = SystemConfig::new(4).with_seed(10).with_replica(full());
        cfg.broadcast_gossip = broadcast;
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        for _ in 0..15 {
            sys.submit(c, CounterOp::Increment(1), &[], false);
            sys.run_for(SimDuration::from_millis(8));
        }
        sys.run_until_quiescent();
        check_converged(&sys.local_orders(), &sys.replica_states()).expect("converged");
        (sys.gossip_traffic().0, sys.replica_states())
    };
    let (msgs_unicast, s_u) = run(false);
    let (msgs_broadcast, s_b) = run(true);
    assert_eq!(s_u, s_b);
    assert!(
        msgs_broadcast * 2 <= msgs_unicast,
        "broadcast should construct ~1/(n-1) of the messages: {msgs_broadcast} vs {msgs_unicast}"
    );
}

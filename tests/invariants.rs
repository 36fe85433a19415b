//! The Sections 4/7/8/10 invariants evaluated over every state of
//! randomized executions, including executions with message duplication
//! and reordering (loss is exercised in `faults.rs`; crash-recovery
//! intentionally violates Invariant 7.4's knowledge assumptions and is
//! validated by behavioural checks instead).

use esds::datatypes::{Counter, CounterOp};
use esds::harness::{SimSystem, SystemConfig};
use esds_alg::{check_all, GossipStrategy, MonotonicityChecker, ReplicaConfig};
use esds_core::OpId;
use esds_sim::{ChannelConfig, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run_with_invariant_checks(cfg: SystemConfig, seed: u64, ops: usize) {
    let mut sys = SimSystem::new(Counter, cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let clients: Vec<_> = (0..3).map(|i| sys.add_client(i)).collect();
    let mut last: Option<OpId> = None;
    for i in 0..ops {
        let c = clients[i % clients.len()];
        let op = if rng.gen_bool(0.6) {
            CounterOp::Increment(1)
        } else {
            CounterOp::Read
        };
        let prev: Vec<OpId> = if rng.gen_bool(0.35) {
            last.into_iter().collect()
        } else {
            Vec::new()
        };
        last = Some(sys.submit(c, op, &prev, rng.gen_bool(0.2)));
    }

    let mut mono = MonotonicityChecker::new();
    let mut idle = 0u32;
    for _ in 0..500_000u64 {
        let Some((_, report)) = sys.step_one() else {
            break;
        };
        let view = sys.view().expect("no crashes");
        let violations = check_all(&view);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let mv = mono.observe(&view);
        assert!(mv.is_empty(), "seed {seed}: {mv:?}");
        if sys.is_converged() && report.is_trivial() {
            idle += 1;
            if idle > 3 {
                break;
            }
        } else {
            idle = 0;
        }
    }
    assert!(sys.is_converged(), "seed {seed} did not converge");
}

#[test]
fn invariants_hold_fixed_channels() {
    for seed in 0..4 {
        let cfg = SystemConfig::new(3)
            .with_seed(seed)
            .with_replica(ReplicaConfig::default().with_witness())
            .with_tracking();
        run_with_invariant_checks(cfg, seed, 12);
    }
}

#[test]
fn invariants_hold_reordering_channels() {
    let ch = ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(10));
    let cfg = SystemConfig::new(3)
        .with_seed(77)
        .with_replica(ReplicaConfig::default().with_witness())
        .with_channels(ch, ch)
        .with_tracking();
    run_with_invariant_checks(cfg, 77, 12);
}

#[test]
fn invariants_hold_duplicating_channels() {
    let ch = ChannelConfig::fixed(SimDuration::from_millis(4)).with_dup(0.4);
    let cfg = SystemConfig::new(3)
        .with_seed(15)
        .with_replica(ReplicaConfig::default().with_witness())
        .with_channels(ch, ch)
        .with_tracking();
    run_with_invariant_checks(cfg, 15, 10);
}

#[test]
fn invariants_hold_without_memoization() {
    let cfg = SystemConfig::new(4)
        .with_seed(3)
        .with_replica(ReplicaConfig::basic().with_witness())
        .with_tracking();
    run_with_invariant_checks(cfg, 3, 12);
}

#[test]
fn invariants_hold_two_replicas() {
    let cfg = SystemConfig::new(2)
        .with_seed(9)
        .with_replica(ReplicaConfig::default().with_witness())
        .with_tracking();
    run_with_invariant_checks(cfg, 9, 14);
}

#[test]
fn invariants_hold_under_full_gossip() {
    // The paper's full snapshots are the messages the message-content
    // invariants (7.5, 7.10, 7.18) are stated for; the default batched
    // exchange is checked against the rest.
    let full = ReplicaConfig::default()
        .with_gossip(GossipStrategy::Full)
        .with_witness();
    let reorder = ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(10));
    for (seed, ch) in [
        (0, ChannelConfig::fixed(SimDuration::from_millis(5))),
        (77, reorder),
    ] {
        let cfg = SystemConfig::new(3)
            .with_seed(seed)
            .with_replica(full)
            .with_channels(ch, ch)
            .with_tracking();
        run_with_invariant_checks(cfg, seed, 12);
    }
}

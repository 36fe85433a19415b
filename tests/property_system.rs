//! Property-based whole-system tests: for arbitrary workload shapes,
//! channel parameters, and seeds, the service converges, respects the
//! client-specified constraints, and explains every response.

use esds::core::OpId;
use esds::datatypes::{Counter, CounterOp};
use esds::harness::{SimSystem, SystemConfig};
use esds::spec::{check_converged, TraceChecker};
use esds_alg::ReplicaConfig;
use esds_sim::{ChannelConfig, SimDuration, SimTime};
use proptest::prelude::*;

/// One scripted submission: which client, operator choice, strictness,
/// whether to depend on that client's previous op, and a pause afterwards.
#[derive(Clone, Debug)]
struct Step {
    client: usize,
    is_inc: bool,
    strict: bool,
    dep: bool,
    pause_ms: u64,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u64..25,
    )
        .prop_map(|(client, is_inc, strict, dep, pause_ms)| Step {
            client,
            is_inc,
            strict,
            dep,
            pause_ms,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The omnibus property: convergence + Theorem 5.7 + Theorem 5.8 for
    /// arbitrary schedules on reliable (possibly reordering) channels.
    #[test]
    fn system_is_eventually_serializable(
        steps in proptest::collection::vec(step_strategy(), 1..25),
        seed in 0u64..1000,
        n in 2usize..5,
        jitter_ms in 0u64..10,
    ) {
        let ch = if jitter_ms == 0 {
            ChannelConfig::fixed(SimDuration::from_millis(5))
        } else {
            ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(1 + jitter_ms))
        };
        let cfg = SystemConfig::new(n)
            .with_seed(seed)
            .with_replica(ReplicaConfig::default().with_witness())
            .with_channels(ch, ch);
        let mut sys = SimSystem::new(Counter, cfg);
        let clients: Vec<_> = (0..3).map(|i| sys.add_client(i)).collect();
        let mut last: Vec<Option<OpId>> = vec![None; 3];
        for s in &steps {
            let op = if s.is_inc { CounterOp::Increment(1) } else { CounterOp::Read };
            let prev: Vec<OpId> = if s.dep { last[s.client].into_iter().collect() } else { vec![] };
            let id = sys.submit(clients[s.client], op, &prev, s.strict);
            last[s.client] = Some(id);
            if s.pause_ms > 0 {
                sys.run_for(SimDuration::from_millis(s.pause_ms));
            }
        }
        let end = sys.run_until_converged(SimTime::from_millis(600_000));
        prop_assert!(end.is_ok(), "no convergence: {end:?}");

        // Convergence of orders and states.
        prop_assert!(check_converged(&sys.local_orders(), &sys.replica_states()).is_ok());

        // Every response explained; strict ones by the eventual order.
        let mut checker = TraceChecker::new(Counter);
        for d in sys.requested_in_order() {
            checker.on_request(d.clone()).expect("well-formed");
        }
        for (id, v, w) in sys.responses_log() {
            checker.on_response(*id, v.clone(), w.clone());
        }
        let v58 = checker.check_eventual_order(&sys.minlabel_order(), false);
        prop_assert!(v58.is_empty(), "{v58:?}");
        let (v57, skipped) = checker.check_witnessed_responses();
        prop_assert!(v57.is_empty(), "{v57:?}");
        prop_assert_eq!(skipped, 0);
    }

    /// Configuration matrix: every combination of the §10 optimization
    /// knobs (the paper's full gossip instead of the batched default,
    /// gossip GC, memoization, broadcast) stays safe and live under lossy,
    /// duplicating and reordering channels with front-end retries.
    #[test]
    fn optimization_matrix_is_safe(
        seed in 0u64..400,
        full in any::<bool>(),
        gc in any::<bool>(),
        memo in any::<bool>(),
        broadcast in any::<bool>(),
        loss_pct in 0u32..25,
        dup_pct in 0u32..20,
    ) {
        let mut rc = if memo { ReplicaConfig::default() } else { ReplicaConfig::basic() };
        rc = rc.with_witness();
        // Broadcast sends one message to all peers, so per-peer batched
        // pruning cannot apply (the harness rejects the combination).
        if full || broadcast {
            rc = rc.with_gossip(esds_alg::GossipStrategy::Full);
        }
        if gc {
            rc = rc.with_gc();
        }
        let loss = f64::from(loss_pct) / 100.0;
        let ch = ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(6))
            .with_loss(loss)
            .with_dup(f64::from(dup_pct) / 100.0);
        let mut cfg = SystemConfig::new(3)
            .with_seed(seed)
            .with_replica(rc)
            .with_channels(ch, ch)
            .with_retry(SimDuration::from_millis(30));
        cfg.broadcast_gossip = broadcast;
        let mut sys = SimSystem::new(Counter, cfg);
        let c0 = sys.add_client(0);
        let c1 = sys.add_client(1);
        let mut anchor = None;
        for i in 0..8u64 {
            let id = sys.submit(c0, CounterOp::Increment(1), &[], i == 7);
            if i == 3 {
                anchor = Some(id);
            }
            let prev: Vec<OpId> = anchor.into_iter().collect();
            sys.submit(c1, CounterOp::Read, &prev, false);
            sys.run_for(SimDuration::from_millis(7));
        }
        let end = sys.run_until_converged(SimTime::from_millis(600_000));
        prop_assert!(end.is_ok(), "no convergence: {end:?}");
        prop_assert!(check_converged(&sys.local_orders(), &sys.replica_states()).is_ok());

        let mut checker = TraceChecker::new(Counter);
        for d in sys.requested_in_order() {
            checker.on_request(d.clone()).expect("well-formed");
        }
        for (id, v, w) in sys.responses_log() {
            checker.on_response(*id, v.clone(), w.clone());
        }
        let v58 = checker.check_eventual_order(&sys.minlabel_order(), false);
        prop_assert!(v58.is_empty(), "{v58:?}");
    }

    /// Determinism: identical configurations yield identical traces.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..500) {
        let run = || {
            let ch = ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(7));
            let cfg = SystemConfig::new(3).with_seed(seed).with_channels(ch, ch);
            let mut sys = SimSystem::new(Counter, cfg);
            let c = sys.add_client(0);
            for i in 0..10u64 {
                sys.submit(c, CounterOp::Increment(1), &[], i % 3 == 0);
                sys.run_for(SimDuration::from_millis(4));
            }
            sys.run_until_quiescent();
            (
                sys.minlabel_order(),
                sys.responses_log().to_vec(),
                sys.replica_states(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

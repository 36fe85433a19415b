//! Conformance of the **sharded** service layer, under **batched**
//! gossip, against the `ESDS-II` specification.
//!
//! Until this suite, the `ConformanceObserver` (the executable forward
//! simulation of Theorem 8.4) only ever watched single-group systems.
//! Each shard of a `ShardedSimSystem` is an unmodified ESDS instance over
//! its slice of the keyspace, so the sharded conformance statement is:
//! every shard's step trace is simulable by its own `ESDS-II` automaton.
//! The cross-shard layer adds nothing the spec must know about — it only
//! *delays* submissions (a dependent operation is released to its shard
//! after its foreign predecessors respond), and delayed `request(x)`
//! actions are still just `request(x)` actions.
//!
//! Running the whole thing under `GossipStrategy::Batched` additionally
//! checks that acknowledgement-pruned batches preserve every proof
//! obligation: the observer re-derives `po` from replica labels *and
//! in-flight gossip* each step, so a batched exchange that dropped or
//! reordered knowledge a snapshot would have carried shows up as a failed
//! precondition here.

use esds::alg::ReplicaConfig;
use esds::datatypes::{KvOp, KvStore, KvValue};
use esds::harness::{ConformanceObserver, ShardedSimSystem, ShardedSystemConfig, SystemConfig};
use esds::spec::check_converged;

#[test]
fn sharded_system_conforms_to_esds2_under_batched_gossip() {
    // Witness recording + in-flight tracking are what the observer needs;
    // batched gossip with a 2-tick accumulation exercises the delta path.
    let shard_cfg = SystemConfig::new(3)
        .with_seed(29)
        .with_replica(ReplicaConfig::default().with_witness().with_batched(2))
        .with_tracking();
    let n_shards = 3;
    let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(n_shards, shard_cfg));
    let mut observers: Vec<ConformanceObserver<KvStore>> = (0..n_shards)
        .map(|_| ConformanceObserver::new(KvStore))
        .collect();

    // A workload that crosses shards: writes over 8 keys, occasional
    // reads chained after the previous operation (cross-shard prev when
    // the keys hash apart — those defer until the foreign response), and
    // a strict op now and then (exercising stability through batched
    // summaries).
    let c = sys.add_client(0);
    let mut last = None;
    let mut submitted = 0usize;
    for i in 0..16u64 {
        let key = format!("k{}", i % 8);
        let op = if i % 3 == 0 {
            KvOp::get(&key)
        } else {
            KvOp::put(&key, format!("v{i}"))
        };
        let prev: Vec<_> = if i % 4 == 1 {
            last.into_iter().collect()
        } else {
            vec![]
        };
        last = Some(sys.submit(c, op, &prev, i % 5 == 0));
        submitted += 1;
    }

    // Drive every shard one event at a time, replaying each step against
    // that shard's own ESDS-II automaton. Deferred cross-shard releases
    // happen inside step_shard, so their request(x) actions appear in the
    // owning shard's next report.
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 200_000, "sharded conformance test runaway");
        let mut all_trivial = true;
        for (s, obs) in observers.iter_mut().enumerate() {
            let Some((_, report)) = sys.step_shard(s) else {
                continue;
            };
            all_trivial &= report.is_trivial();
            let view = sys.shard_view(s).expect("no crashes in this test");
            obs.observe(&report, &view)
                .unwrap_or_else(|e| panic!("shard {s} conformance violated: {e}"));
        }
        if sys.is_converged() && all_trivial {
            break;
        }
    }

    // Everything submitted was answered, and each shard's spec automaton
    // entered and stabilized exactly the operations routed to it.
    assert_eq!(sys.completed_count(), submitted);
    let mut spec_ops = 0usize;
    for (s, obs) in observers.iter().enumerate() {
        assert!(obs.actions > 0, "shard {s} observed no actions");
        assert_eq!(
            obs.spec().ops().len(),
            obs.spec().stabilized().len(),
            "shard {s} left operations unstabilized"
        );
        spec_ops += obs.spec().ops().len();
    }
    assert_eq!(
        spec_ops, submitted,
        "every op entered exactly one shard's spec"
    );

    // And the usual end-state sanity: per-shard convergence plus a read
    // seeing its chained write.
    for s in 0..n_shards {
        let shard = &sys.shards()[s];
        check_converged(&shard.local_orders(), &shard.replica_states())
            .unwrap_or_else(|e| panic!("shard {s} diverged: {e}"));
    }
    let probe_w = sys.submit(c, KvOp::put("probe", "final"), &[], false);
    let probe_r = sys.submit(c, KvOp::get("probe"), &[probe_w], false);
    sys.run_until_quiescent();
    assert_eq!(
        sys.response(probe_r),
        Some(&KvValue::Value(Some("final".into())))
    );
}

/// Conformance of a **mixed keyed / whole-object workload**: scattered
/// `Keys` queries ride alongside keyed puts and gets, and every shard's
/// step trace — sub-operations included — must stay simulable by its own
/// `ESDS-II` automaton. A gather adds nothing the per-shard spec must
/// know about: each sub-operation is an ordinary `request(x)` on its
/// shard, and the merge happens outside the protocol entirely.
///
/// On top of per-shard conformance, the **barrier predicate** of the
/// strict gathers is asserted directly: for every involved shard, the
/// recorded (frontier, sub-operation) pair must satisfy
/// `check_barrier_cut` against the shard's eventual total order — the
/// sub-operation present, the whole answered frontier present, and the
/// sub-operation ordered after all of it (the per-shard half of the
/// Theorem 5.7/5.8 argument for gathered strict reads).
#[test]
fn mixed_gather_workload_conforms_and_barrier_cuts_hold() {
    use esds::spec::{check_barrier_cut, ShardBarrier};
    let shard_cfg = SystemConfig::new(3)
        .with_seed(83)
        .with_replica(ReplicaConfig::default().with_witness())
        .with_tracking();
    let n_shards = 3usize;
    let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(n_shards, shard_cfg));
    let mut observers: Vec<ConformanceObserver<KvStore>> = (0..n_shards)
        .map(|_| ConformanceObserver::new(KvStore))
        .collect();

    let c = sys.add_client(0);
    let mut last = None;
    let mut gathers = Vec::new();
    let mut keyed = 0usize;
    let mut submitted = 0usize;
    for i in 0..20u64 {
        let key = format!("k{}", i % 10);
        let (op, strict) = match i % 5 {
            0..=2 => (KvOp::put(&key, format!("v{i}")), false),
            3 => (KvOp::get(&key), i % 2 == 1),
            _ => (KvOp::Keys, i % 10 == 9),
        };
        let is_gather = matches!(op, KvOp::Keys);
        let prev: Vec<_> = if i % 4 == 1 {
            last.into_iter().collect()
        } else {
            vec![]
        };
        let id = sys.submit(c, op, &prev, strict);
        if is_gather {
            gathers.push((id, strict));
        } else {
            keyed += 1;
        }
        last = Some(id);
        submitted += 1;
    }

    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 200_000, "mixed gather conformance test runaway");
        let mut all_trivial = true;
        for (s, obs) in observers.iter_mut().enumerate() {
            let Some((_, report)) = sys.step_shard(s) else {
                continue;
            };
            all_trivial &= report.is_trivial();
            let view = sys.shard_view(s).expect("no crashes in this test");
            obs.observe(&report, &view)
                .unwrap_or_else(|e| panic!("shard {s} conformance violated: {e}"));
        }
        if sys.is_converged() && all_trivial {
            break;
        }
    }

    // Every client operation answered — gathers merged, not partial.
    assert_eq!(sys.completed_client_ops(), submitted);
    // Each keyed op entered exactly one shard's spec; each gather entered
    // every involved shard's spec as its sub-operation.
    let spec_ops: usize = observers.iter().map(|o| o.spec().ops().len()).sum();
    assert_eq!(
        spec_ops,
        keyed + gathers.len() * n_shards,
        "sub-operations must enter exactly the involved shards' specs"
    );
    for (s, obs) in observers.iter().enumerate() {
        assert_eq!(
            obs.spec().ops().len(),
            obs.spec().stabilized().len(),
            "shard {s} left operations unstabilized"
        );
    }

    // The barrier predicate, shard by shard, for every strict gather.
    let mut strict_seen = 0usize;
    for (id, strict) in &gathers {
        let (subs, frontier) = sys.gather_detail(*id).expect("gather bookkeeping");
        assert_eq!(subs.len(), n_shards, "one sub-operation per shard");
        if !*strict {
            assert!(frontier.is_empty(), "eventual gathers take no barrier");
            continue;
        }
        strict_seen += 1;
        assert_eq!(
            frontier.len(),
            n_shards,
            "strict gathers barrier every shard"
        );
        for (shard, sub) in subs {
            let order = sys.shards()[*shard as usize].minlabel_order();
            let b = ShardBarrier {
                shard: *shard,
                frontier: frontier[shard].clone(),
                sub: *sub,
            };
            assert_eq!(
                check_barrier_cut(&b, &order),
                Vec::new(),
                "barrier violated on shard {shard} for {id}"
            );
        }
    }
    assert!(strict_seen > 0, "workload must include strict gathers");

    for s in 0..n_shards {
        let shard = &sys.shards()[s];
        check_converged(&shard.local_orders(), &shard.replica_states())
            .unwrap_or_else(|e| panic!("shard {s} diverged: {e}"));
    }
}

/// Conformance **through a live slot handoff**: a shard is added in the
/// middle of the workload, and every shard — source groups, the
/// receiving group, before, during, and after the migration — must stay
/// simulable by its own `ESDS-II` automaton, step by step.
///
/// The migration's internals all reduce to ordinary protocol actions the
/// observer already knows how to simulate: frozen submissions are merely
/// *delayed* `request(x)` actions; the replayed stable prefix enters the
/// receiving shard as fresh requests of the migration client; the `prev`
/// anchor that orders drained operations behind the transferred history
/// is a plain client-specified constraint. So the proof obligation here
/// is exactly Theorem 8.4 per shard, with the handoff exercising the
/// request/enter/stabilize paths across groups.
///
/// On top of conformance, the test asserts the end-to-end service
/// guarantees of the ISSUE: **no response lost** (every submitted
/// operation is answered), **none duplicated** (each operation entered
/// exactly one shard's spec automaton; replays are distinct migration-
/// client requests), and **stable prefixes stay consistent** (every
/// group converges to one order; chained reads see their writes across
/// the handoff).
#[test]
fn conformance_holds_through_slot_handoff() {
    let shard_cfg = SystemConfig::new(3)
        .with_seed(47)
        .with_replica(ReplicaConfig::default().with_witness())
        .with_tracking();
    let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(2, shard_cfg));
    let mut observers: Vec<ConformanceObserver<KvStore>> =
        (0..2).map(|_| ConformanceObserver::new(KvStore)).collect();

    let c = sys.add_client(0);
    let n_keys = 10u64;
    let mut last: Option<esds::core::ShardedOpId> = None;
    let mut submitted = 0usize;
    let mut ids = Vec::new();
    let mut chained_writes: Vec<(String, String)> = Vec::new();

    // Drive shard-by-shard steps, injecting workload as we go and adding
    // a shard a third of the way through.
    let mut round = 0u32;
    let mut migration_begun = false;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 400_000, "handoff conformance test runaway");

        // Inject a little workload for the first 24 rounds.
        if round < 24 && guard.is_multiple_of(40) {
            let key = format!("k{}", round as u64 % n_keys);
            let val = format!("v{round}");
            let op = if round % 3 == 2 {
                KvOp::get(&key)
            } else {
                chained_writes.push((key.clone(), val.clone()));
                KvOp::put(&key, &val)
            };
            let prev: Vec<_> = if round % 4 == 1 {
                last.into_iter().collect()
            } else {
                vec![]
            };
            last = Some(sys.submit(c, op, &prev, round.is_multiple_of(5)));
            submitted += 1;
            round += 1;
        }
        // Mid-workload: grow the deployment. The observer for the new
        // shard starts fresh with the shard itself.
        if round == 8 && !migration_begun {
            let new = sys.begin_add_shard();
            assert_eq!(new as usize, observers.len());
            observers.push(ConformanceObserver::new(KvStore));
            migration_begun = true;
            assert!(sys.migration_active());
        }

        let mut all_trivial = true;
        for (s, obs) in observers.iter_mut().enumerate() {
            let Some((_, report)) = sys.step_shard(s) else {
                continue;
            };
            all_trivial &= report.is_trivial();
            let view = sys.shard_view(s).expect("no crashes in this test");
            obs.observe(&report, &view)
                .unwrap_or_else(|e| panic!("shard {s} conformance violated mid-handoff: {e}"));
        }
        if round >= 24 && sys.is_converged() && all_trivial {
            break;
        }
    }
    assert!(migration_begun);
    assert!(!sys.migration_active(), "handoff must have completed");
    assert_eq!(sys.table_version(), 1);
    assert_eq!(sys.n_shards(), 3);

    // No response lost: everything submitted was answered.
    ids.extend((0..submitted as u64).map(|s| esds::core::ShardedOpId::new(c, s)));
    for id in &ids {
        assert!(sys.response(*id).is_some(), "response for {id} lost");
    }
    // None duplicated: each operation entered exactly one shard's spec,
    // and the only extra spec entries are the replayed stable prefix
    // (the migration client's requests on the receiving shard).
    let spec_ops: usize = observers.iter().map(|o| o.spec().ops().len()).sum();
    let replayed = sys.completed_count() - submitted;
    assert!(replayed > 0, "the handoff must have replayed some history");
    assert_eq!(
        spec_ops,
        submitted + replayed,
        "operations entered more than one spec automaton"
    );
    for (s, obs) in observers.iter().enumerate() {
        assert_eq!(
            obs.spec().ops().len(),
            obs.spec().stabilized().len(),
            "shard {s} left operations unstabilized"
        );
    }
    // Stable prefixes consistent: every group individually converged.
    for s in 0..sys.n_shards() {
        let shard = &sys.shards()[s];
        check_converged(&shard.local_orders(), &shard.replica_states())
            .unwrap_or_else(|e| panic!("shard {s} diverged after handoff: {e}"));
    }
    // And the state survived the move: the last write of every key is
    // what a constrained read sees now.
    let mut finals: std::collections::BTreeMap<String, String> = Default::default();
    for (k, v) in chained_writes {
        finals.insert(k, v);
    }
    let mut reads = Vec::new();
    for (k, v) in &finals {
        reads.push((
            k.clone(),
            v.clone(),
            sys.submit(c, KvOp::get(k), &[], false),
        ));
    }
    sys.run_until_quiescent();
    for (k, v, id) in reads {
        assert_eq!(
            sys.response(id),
            Some(&KvValue::Value(Some(v.clone()))),
            "key {k} lost or reordered across the handoff"
        );
    }
}

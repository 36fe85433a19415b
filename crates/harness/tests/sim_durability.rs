//! Deterministic fault injection for durable replicas under the
//! simulator: a replica persisting through an `esds-store` backend over
//! [`MemStorage`] loses power at an injected byte budget
//! ([`CrashPlan`]), is rebuilt from the surviving disk image, and
//! rejoins through the §9.3 recovery gate — after which the whole
//! system reconverges and every submitted operation completes (front
//! ends retry; Theorem 9.4's liveness resumes after recovery).

use esds_alg::ReplicaConfig;
use esds_core::ReplicaId;
use esds_datatypes::{Counter, CounterOp, CounterValue};
use esds_harness::{SimSystem, SystemConfig};
use esds_sim::SimDuration;
use esds_store::{CrashPlan, DurableConfig, DurableStore, MemStorage};

fn durable_config(seed: u64) -> SystemConfig {
    SystemConfig::new(3)
        .with_seed(seed)
        .with_replica(ReplicaConfig::default())
        .with_retry(SimDuration::from_millis(50))
}

#[test]
fn injected_crash_point_loses_power_and_recovery_rejoins() {
    let mut sys = SimSystem::new(Counter, durable_config(11));
    let disk = MemStorage::new();
    let (store, _fresh, report) = DurableStore::open(
        Counter,
        disk.clone(),
        ReplicaId(0),
        3,
        ReplicaConfig::default(),
        DurableConfig {
            snapshot_every: Some(8),
        },
    )
    .expect("fresh open");
    assert!(!report.recovered);
    sys.install_persistence(0, Box::new(store));
    // Power cut mid-run: the plan fires inside some handler's persist,
    // which must crash the slot and drop that handler's effects.
    disk.set_crash_plan(CrashPlan {
        after_bytes: 700,
        keep_unsynced_tail: false,
    });

    let clients: Vec<_> = (0..3).map(|i| sys.add_client(i)).collect();
    let total = 30u64;
    let mut ids = Vec::new();
    for i in 0..total {
        ids.push(sys.submit(
            clients[(i % 3) as usize],
            CounterOp::Increment(1),
            &[],
            false,
        ));
        sys.run_for(SimDuration::from_millis(30));
    }
    assert!(
        disk.is_crashed(),
        "the crash plan never fired; lower after_bytes"
    );
    assert!(
        !sys.all_replicas_alive(),
        "persist failure must crash the slot"
    );

    // Restart replica 0 from what survives on disk.
    let survivor = disk.survivor();
    let (store, recovered, report) = DurableStore::open(
        Counter,
        survivor,
        ReplicaId(0),
        3,
        ReplicaConfig::default(),
        DurableConfig {
            snapshot_every: Some(8),
        },
    )
    .expect("recovery from the survivor image");
    assert!(
        report.recovered,
        "the crashed replica had synced state: {report}"
    );
    assert!(
        recovered.is_recovering(),
        "re-entry goes through the §9.3 gate"
    );
    sys.replace_replica(0, recovered, Some(Box::new(store)));
    assert!(sys.all_replicas_alive());

    // Every submitted operation completes (retries re-deliver the ones
    // the crash swallowed), and a strict read pinned after all of them
    // observes every increment.
    let read = sys.submit(clients[0], CounterOp::Read, &ids, true);
    sys.run_until_converged(sys.now() + SimDuration::from_secs(120))
        .expect("system reconverges after recovery");
    assert_eq!(
        sys.response(read),
        Some(&CounterValue::Count(total as i64)),
        "a strict read after recovery must count every increment"
    );
}

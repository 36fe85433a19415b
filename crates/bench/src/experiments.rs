//! The experiment implementations, shared by the per-experiment binaries
//! and `run_all`. Every function prints a paper-style table and returns
//! the raw series for tests.

use esds_alg::{GossipStrategy, RelayPolicy, ReplicaConfig, SafeSubmitter};
use esds_core::{ClientId, SerialDataType};
use esds_datatypes::{Counter, GSet, KvStore};
use esds_harness::{
    apply_open_loop, CounterSource, FaultEvent, GSetSource, KvSource, OpClass, OpenLoopWorkload,
    OperatorSource, ProcessingModel, ShardedSimSystem, ShardedSystemConfig, SimSystem,
};
use esds_sim::{ChannelConfig, SimDuration, SimTime};
use esds_spec::check_converged;

use crate::{max_latency, mean_latency_secs, print_table, standard_config, throughput};

/// F1 — §11.1 scalability: replicas 1..=max_n, constant per-replica load,
/// 100% nonstrict. Returns `(n, throughput ops/s)` pairs for the
/// replicated service and for the centralized baseline under the same
/// total load.
pub fn fig_scalability(max_n: usize, ops_per_client: usize) -> Vec<(usize, f64, f64)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for n in 1..=max_n {
        // Replicated: n clients (one per replica), fixed period each.
        let tp_esds = scalability_run(n, n, ops_per_client);
        // Centralized baseline: same total load onto one replica.
        let tp_central = scalability_run(1, n, ops_per_client);
        let efficiency = tp_esds / (tp_esds / n as f64 * n as f64).max(f64::EPSILON);
        let _ = efficiency;
        rows.push(vec![
            n.to_string(),
            format!("{:.0}", n as f64 * 500.0),
            format!("{tp_esds:.0}"),
            format!("{tp_central:.0}"),
            format!("{:.2}", tp_esds / tp_central.max(f64::EPSILON)),
        ]);
        out.push((n, tp_esds, tp_central));
    }
    print_table(
        "F1 — throughput vs number of replicas (paper §11.1: \"increased almost linearly\")",
        &[
            "replicas",
            "offered ops/s",
            "ESDS ops/s",
            "centralized ops/s",
            "speedup",
        ],
        &rows,
    );
    out
}

fn scalability_run(n: usize, clients: usize, ops_per_client: usize) -> f64 {
    // Per-replica capacity 1000 ops/s (1 ms request cost); each client
    // offers 500 ops/s.
    let cfg = standard_config(n, 1000 + n as u64)
        .with_processing(ProcessingModel {
            request_cost: SimDuration::from_millis(1),
            gossip_cost: SimDuration::from_micros(200),
        })
        .with_gossip_interval(SimDuration::from_millis(50));
    let mut sys = SimSystem::new(Counter, cfg);
    let w = OpenLoopWorkload::new(clients, ops_per_client, SimDuration::from_millis(2));
    let mut src = CounterSource::new(0.5, 42);
    apply_open_loop(&mut sys, &w, &mut src);
    // Run until all answered (not full stabilization — throughput is about
    // responses), with a generous horizon.
    let mut end = SimTime::ZERO;
    for _ in 0..100_000 {
        sys.run_for(SimDuration::from_millis(100));
        if sys.completed_count() == clients * ops_per_client {
            end = sys.now();
            break;
        }
    }
    assert!(end > SimTime::ZERO, "scalability run did not finish");
    // Throughput over the busy interval (first submit at ~0).
    throughput(&sys, latest_response(&sys))
}

fn latest_response<T: SerialDataType + Clone>(sys: &SimSystem<T>) -> SimTime {
    sys.op_times()
        .values()
        .filter_map(|t| t.responded)
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// F3 — shard scalability: aggregate kv throughput vs shard count `S ∈
/// {1, 2, 4, 8}` under a fixed offered load well above one replica
/// group's capacity. Each shard is a 3-replica group with a 1 ms
/// request-service time (capacity ≈ 1000 ops/s per replica); `clients`
/// clients each offer ~1000 ops/s over 256 keys, hash-partitioned by the
/// `ShardRouter`. Returns `(n_shards, aggregate ops/s)` pairs.
pub fn fig_shard_scalability(clients: usize, ops_per_client: usize) -> Vec<(usize, f64)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for s in [1usize, 2, 4, 8] {
        let tp = shard_run(s, clients, ops_per_client);
        out.push((s, tp));
    }
    let base = out[0].1;
    let offered_per_client = 1_000.0 / SHARD_SUBMIT_PERIOD_MS as f64;
    for (s, tp) in &out {
        rows.push(vec![
            s.to_string(),
            (s * 3).to_string(),
            format!("{:.0}", clients as f64 * offered_per_client),
            format!("{tp:.0}"),
            format!("{:.2}×", tp / base.max(f64::EPSILON)),
        ]);
    }
    print_table(
        "F3 — aggregate throughput vs shard count (kv workload, saturated single group)",
        &[
            "shards",
            "replicas total",
            "offered ops/s",
            "aggregate ops/s",
            "speedup vs S=1",
        ],
        &rows,
    );
    out
}

/// Per-client submit period of the F3 workload (one op per period ⇒
/// `1000 / period_ms` offered ops/s per client — the table's offered-load
/// column derives from this same constant).
const SHARD_SUBMIT_PERIOD_MS: u64 = 1;

/// Per-client submit period of the F4 rebalancing workload (500 offered
/// ops/s per client — kept under the 2-group capacity; see
/// [`fig_rebalance`]).
const REBALANCE_PERIOD_MS: u64 = 2;

/// One phase of the F4 rebalancing experiment.
#[derive(Clone, Copy, Debug)]
pub struct RebalancePhase {
    /// Phase name (`before` / `during` / `after`).
    pub phase: &'static str,
    /// Virtual length of the phase window in seconds.
    pub window_secs: f64,
    /// Completed client operations per virtual second inside the window
    /// (stable-prefix replay traffic excluded).
    pub ops_per_sec: f64,
    /// Mean response latency of operations submitted inside the window.
    pub mean_latency_ms: f64,
}

/// F4 — live rebalancing: kv throughput and latency **through an
/// add-shard event**. An `S = 2` deployment runs an open loop near
/// capacity; a quarter of the way in, `begin_add_shard` starts the slot handoff
/// (freeze → stable-prefix replay → table flip → drain). The three
/// windows are `[0, begin)`, `[begin, flip)` (migrating slots frozen,
/// their submissions queued), and `[flip, end]` (three groups serving).
/// The acceptance bar: post-migration throughput ≥ the pre-migration
/// 2-shard baseline. Returns the three phases in order.
pub fn fig_rebalance(clients: usize, ops_per_client: usize) -> Vec<RebalancePhase> {
    // Default 20 ms gossip interval: the handoff's stability gate needs
    // a few gossip rounds, and the experiment wants the flip to land
    // while load is still being offered. The offered load sits *below*
    // the 2-group capacity: past saturation, gossip queues behind the
    // unbounded request backlog and the migrating slots can never
    // stabilize — a deployment cannot hand off what it cannot stabilize.
    let shard_cfg = standard_config(3, 9898).with_processing(ProcessingModel {
        request_cost: SimDuration::from_millis(1),
        gossip_cost: SimDuration::from_micros(100),
    });
    let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(2, shard_cfg));
    let cs: Vec<ClientId> = (0..clients).map(|i| sys.add_client(i as u32)).collect();
    let mut src = KvSource::new(0.5, 256, 77);
    // (id, intent time): latency is measured from the client's submit
    // call, so time spent queued behind a frozen slot counts against the
    // "during" phase — the honest cost of the handoff.
    let mut ids: Vec<(esds_core::ShardedOpId, SimTime)> =
        Vec::with_capacity(clients * ops_per_client);
    // Trigger a quarter of the way in: the handoff (freeze → stability →
    // replay → flip) spans several gossip rounds, and the "after" phase
    // needs offered load left to measure against three groups.
    let trigger_at = ops_per_client / 4;
    let mut t_begin = None;
    let mut t_flip = None;
    for seq in 0..ops_per_client {
        if seq == trigger_at {
            sys.begin_add_shard();
            t_begin = Some(sys.now());
        }
        for c in &cs {
            let op = src.next_op(*c, seq as u64);
            let now = sys.now();
            ids.push((sys.submit(*c, op, &[], false), now));
        }
        sys.run_for(SimDuration::from_millis(REBALANCE_PERIOD_MS));
        if t_begin.is_some() && t_flip.is_none() && !sys.migration_active() {
            t_flip = Some(sys.now());
        }
    }
    // End of offered load: the "after" phase is measured up to here, so
    // every window compares like with like (offered-load steady state,
    // not the final drain tail).
    let t_end_offered = sys.now();
    // Drain: run until every client submission is answered (the handoff
    // must also complete on the way).
    let total = clients * ops_per_client;
    for _ in 0..100_000 {
        if sys.completed_client_ops() >= total {
            break;
        }
        sys.run_for(SimDuration::from_millis(100));
        if t_begin.is_some() && t_flip.is_none() && !sys.migration_active() {
            t_flip = Some(sys.now());
        }
    }
    assert!(
        sys.completed_client_ops() >= total,
        "rebalance run did not finish: {}/{total}",
        sys.completed_client_ops()
    );
    let t_begin = t_begin.expect("migration triggered");
    let t_flip = t_flip.expect("migration completed");
    assert_eq!(sys.table_version(), 1);
    assert!(
        t_flip < t_end_offered,
        "handoff must complete while load is still offered; raise ops_per_client"
    );

    // Bucket every client op by the phase window its *submission* fell
    // into; measure each window's throughput by responses landing in it.
    let windows = [
        ("before", SimTime::ZERO, t_begin),
        ("during", t_begin, t_flip),
        ("after", t_flip, t_end_offered),
    ];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (name, lo, hi) in windows {
        let mut completed_in_window = 0usize;
        let mut latency_sum_us = 0u64;
        let mut latency_n = 0u64;
        for (id, intent) in &ids {
            let Some((_, responded)) = sys.op_timing(*id) else {
                continue;
            };
            if let Some(r) = responded {
                if r > lo && r <= hi {
                    completed_in_window += 1;
                }
                if *intent >= lo && *intent < hi {
                    latency_sum_us += r.duration_since(*intent).as_micros();
                    latency_n += 1;
                }
            }
        }
        let window_secs = hi.duration_since(lo).as_secs_f64();
        let phase = RebalancePhase {
            phase: name,
            window_secs,
            ops_per_sec: if window_secs > 0.0 {
                completed_in_window as f64 / window_secs
            } else {
                0.0
            },
            mean_latency_ms: if latency_n > 0 {
                latency_sum_us as f64 / latency_n as f64 / 1e3
            } else {
                0.0
            },
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.2} s", phase.window_secs),
            format!("{:.0}", phase.ops_per_sec),
            format!("{:.1} ms", phase.mean_latency_ms),
        ]);
        out.push(phase);
    }
    print_table(
        "F4 — live rebalancing: add-shard handoff under load (2 → 3 groups, kv, slots frozen only during the handoff)",
        &["phase", "window", "client ops/s", "mean latency"],
        &rows,
    );
    out
}

fn shard_run(n_shards: usize, clients: usize, ops_per_client: usize) -> f64 {
    let shard_cfg = standard_config(3, 4242 + n_shards as u64)
        .with_processing(ProcessingModel {
            request_cost: SimDuration::from_millis(1),
            gossip_cost: SimDuration::from_micros(100),
        })
        .with_gossip_interval(SimDuration::from_millis(50));
    let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(n_shards, shard_cfg));
    let cs: Vec<ClientId> = (0..clients).map(|i| sys.add_client(i as u32)).collect();
    let mut src = KvSource::new(0.5, 256, 7);
    // Open loop: every client submits once per period, an offered load
    // far above a single 3-replica group's capacity.
    let total = clients * ops_per_client;
    for seq in 0..ops_per_client {
        for c in &cs {
            let op = src.next_op(*c, seq as u64);
            sys.submit(*c, op, &[], false);
        }
        sys.run_for(SimDuration::from_millis(SHARD_SUBMIT_PERIOD_MS));
    }
    // Drain: run until every submission is answered.
    for _ in 0..100_000 {
        if sys.completed_count() >= total {
            break;
        }
        sys.run_for(SimDuration::from_millis(100));
    }
    assert!(
        sys.completed_count() >= total,
        "shard run did not finish: {}/{total}",
        sys.completed_count()
    );
    let end = sys.latest_response();
    assert!(end > SimTime::ZERO);
    total as f64 / end.as_secs_f64()
}

/// F5 — sharded **wire** scalability: aggregate kv throughput over real
/// loopback TCP for `S ∈ {1, 2, 4}` shard clusters under a **fixed
/// replica budget** of `WIRE_SHARD_REPLICA_BUDGET` = 8 replicas total
/// (8 → one monolithic 8-replica cluster, 2×4, 4×2). Unlike the
/// virtual-time F3 (whose per-replica service cost is modeled), this
/// measures the real deployment's dominant scaling effect: full-snapshot
/// gossip costs each group `n·(n−1)` messages of O(history) per tick, so
/// partitioning the same replica budget into independent gossip domains
/// cuts aggregate gossip work quadratically while serving the same
/// keyspace. `clients` concurrent client threads drive a closed-loop put
/// workload; throughput is wall-clock completed ops/s. Returns
/// `(n_shards, aggregate ops/s)` pairs.
///
/// Size the workload with care: a monolithic 8-replica group under full
/// gossip *collapses* (gossip work per tick outgrows the tick, queues
/// diverge, requests starve) once its history passes a few hundred
/// operations on a small host — which is the phenomenon this figure
/// quantifies from the safe side. The default sizes keep S = 1 below its
/// collapse point; the sharded configurations sit far from theirs.
///
/// # Panics
///
/// Panics if a client thread's operation goes unanswered for 60 s (the
/// deployment has then collapsed — see above — rather than slowed).
pub fn fig_wire_shards(clients: usize, ops_per_client: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for s in [1usize, 2, 4] {
        let tp = wire_shard_run(s, WIRE_SHARD_REPLICA_BUDGET / s, clients, ops_per_client);
        out.push((s, tp));
    }
    // At full size the headline ordering is an acceptance criterion, not
    // just a report: the monolith must lose to the 2-shard split. (Tiny
    // miniature runs skip this — wall-clock ratios at negligible history
    // are noise.)
    if clients * ops_per_client >= 320 {
        assert!(
            out[1].1 > out[0].1,
            "S=2 must out-throughput the 1-cluster monolith at full size: {out:?}"
        );
    }
    let base = out[0].1;
    let rows = out
        .iter()
        .map(|(s, tp)| {
            vec![
                s.to_string(),
                (WIRE_SHARD_REPLICA_BUDGET / s).to_string(),
                format!("{tp:.0}"),
                format!("{:.2}×", tp / base.max(f64::EPSILON)),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        "F5 — sharded TCP deployment: aggregate throughput vs shard count (kv, loopback sockets, fixed 8-replica budget)",
        &["shards", "replicas/shard", "aggregate ops/s", "speedup vs S=1"],
        &rows,
    );
    out
}

/// Total replicas the F5 experiment spreads across its shard clusters.
const WIRE_SHARD_REPLICA_BUDGET: usize = 8;

fn wire_shard_run(
    n_shards: usize,
    replicas_per_shard: usize,
    clients: usize,
    ops_per_client: usize,
) -> f64 {
    use std::time::{Duration, Instant};
    let mut cfg = esds_wire::ShardedWireConfig::new(replicas_per_shard);
    cfg.cluster.gossip_interval = Duration::from_millis(40);
    let mut svc = esds_wire::ShardedWireService::launch(KvStore, n_shards as u32, cfg);
    let handles: Vec<_> = (0..clients).map(|_| svc.client()).collect();
    let start = Instant::now();
    let threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(ci, mut c)| {
            std::thread::spawn(move || {
                for i in 0..ops_per_client {
                    let key = format!("k{}", (ci * ops_per_client + i) % 64);
                    let id = c.submit(esds_datatypes::KvOp::put(key, "x"), &[], false);
                    c.await_response(id, Duration::from_secs(60))
                        .expect("wire-shard op unanswered");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let secs = start.elapsed().as_secs_f64();
    svc.shutdown();
    (clients * ops_per_client) as f64 / secs.max(f64::EPSILON)
}

/// F6 — what durability costs on the hot path: closed-loop throughput of
/// the 3-replica threaded service with persistence **off** (volatile
/// replicas), **wal** (every input synced to its replica's write-ahead
/// log before any effect is released, no compaction), and
/// **wal+snapshot** (same log plus a stable-prefix checkpoint every 64
/// records, so the figure includes compaction's amortized cost). Returns
/// `(mode, ops/s)` triples; the table also shows throughput relative to
/// the volatile baseline.
///
/// Sync-before-release is the price of the recovery guarantee (an
/// answered operation can never be lost — see `tests/durability.rs`),
/// and this figure is the receipt: it quantifies exactly what the
/// guarantee charges per operation on this host's fsync latency.
///
/// # Panics
///
/// Panics if a client's operation goes unanswered for 60 s or a store
/// cannot be opened under the system temp directory.
pub fn fig_wal_cost(clients: usize, ops_per_client: usize) -> Vec<(&'static str, f64)> {
    // `None` = volatile; `Some(snapshot_every)` = durable with the given
    // compaction policy (`None` inside = WAL only, never compacted).
    let modes: [(&'static str, Option<Option<u64>>); 3] = [
        ("off", None),
        ("wal", Some(None)),
        ("wal+snapshot", Some(Some(64))),
    ];
    let mut out = Vec::new();
    for (tag, durable) in modes {
        let tp = wal_cost_run(tag, durable, clients, ops_per_client);
        out.push((tag, tp));
    }
    let base = out[0].1;
    let rows = out
        .iter()
        .map(|(tag, tp)| {
            vec![
                (*tag).to_string(),
                format!("{tp:.0}"),
                format!("{:.2}×", tp / base.max(f64::EPSILON)),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        "F6 — durable replicas: WAL cost on the hot path (kv, 3 threaded replicas, sync-before-release)",
        &["persistence", "ops/s", "vs volatile"],
        &rows,
    );
    out
}

fn wal_cost_run(
    tag: &str,
    durable: Option<Option<u64>>,
    clients: usize,
    ops_per_client: usize,
) -> f64 {
    use std::time::{Duration, Instant};
    const N: usize = 3;
    let mut cfg = esds_runtime::RuntimeConfig::new(N);
    cfg.gossip_interval = Duration::from_millis(10);
    let root = std::env::temp_dir().join(format!(
        "esds-bench-wal-{}-{}",
        std::process::id(),
        tag.replace('+', "-")
    ));
    let mut svc = match durable {
        None => esds_runtime::RuntimeService::start(KvStore, cfg),
        Some(snapshot_every) => {
            cfg.replica = ReplicaConfig::default().with_durable();
            let _ = std::fs::remove_dir_all(&root);
            let replicas = (0..N)
                .map(|r| {
                    let storage = esds_store::FileStorage::open(root.join(format!("r{r}")))
                        .expect("bench store dir");
                    let (store, replica, report) = esds_store::DurableStore::open(
                        KvStore,
                        storage,
                        esds_core::ReplicaId(r as u32),
                        N,
                        ReplicaConfig::default(),
                        esds_store::DurableConfig { snapshot_every },
                    )
                    .expect("open fresh durable store");
                    assert!(!report.recovered, "bench store must start empty");
                    (
                        replica,
                        Box::new(store) as Box<dyn esds_alg::Persistence<KvStore>>,
                    )
                })
                .collect();
            esds_runtime::RuntimeService::start_durable(cfg, replicas)
        }
    };
    let handles: Vec<_> = (0..clients).map(|_| svc.client()).collect();
    let start = Instant::now();
    let threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(ci, mut c)| {
            std::thread::spawn(move || {
                for i in 0..ops_per_client {
                    let key = format!("k{}", (ci * ops_per_client + i) % 64);
                    let id = c.submit(esds_datatypes::KvOp::put(key, "x"), &[], false);
                    c.await_response(id, Duration::from_secs(60))
                        .expect("wal-cost op unanswered");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let secs = start.elapsed().as_secs_f64();
    svc.shutdown();
    if durable.is_some() {
        let _ = std::fs::remove_dir_all(&root);
    }
    (clients * ops_per_client) as f64 / secs.max(f64::EPSILON)
}

/// F7 — what observability costs on the hot path: closed-loop throughput
/// of the 3-replica threaded service with metrics **off** (disabled
/// registry — every handle is a no-op `Option::None`), **counters**
/// (live registry: per-replica request/gossip counters, per-client
/// submitted/answered counters plus the bounded `await_us` histogram),
/// and **counters+tracing** (same, plus an op-lifecycle tracer sampling
/// 1-in-16 operations into a null sink). Returns `(mode, ops/s)`
/// triples; the table also shows throughput relative to the disabled
/// baseline.
///
/// The disabled path is the design's zero-cost claim and this figure is
/// the receipt: handles are `None` so the instrumented sites reduce to a
/// branch on an already-loaded discriminant. The counters mode bounds
/// the full-fleet price (relaxed atomic increments); the tracing mode
/// adds the FNV sampling hash per lifecycle stage.
///
/// # Panics
///
/// Panics if a client's operation goes unanswered for 60 s.
pub fn fig_obs_overhead(clients: usize, ops_per_client: usize) -> Vec<(&'static str, f64)> {
    let modes: [&'static str; 3] = ["off", "counters", "counters+tracing"];
    let mut out = Vec::new();
    for tag in modes {
        let tp = obs_overhead_run(tag, clients, ops_per_client);
        out.push((tag, tp));
    }
    let base = out[0].1;
    let rows = out
        .iter()
        .map(|(tag, tp)| {
            vec![
                (*tag).to_string(),
                format!("{tp:.0}"),
                format!("{:.2}×", tp / base.max(f64::EPSILON)),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        "F7 — observability overhead on the hot path (kv, 3 threaded replicas, closed loop)",
        &["metrics", "ops/s", "vs disabled"],
        &rows,
    );
    out
}

fn obs_overhead_run(tag: &str, clients: usize, ops_per_client: usize) -> f64 {
    use std::time::{Duration, Instant};
    let mut cfg = esds_runtime::RuntimeConfig::new(3);
    cfg.gossip_interval = Duration::from_millis(10);
    cfg = match tag {
        "off" => cfg,
        "counters" => cfg.with_obs(esds_obs::MetricsRegistry::new()),
        "counters+tracing" => cfg
            .with_obs(esds_obs::MetricsRegistry::new())
            .with_tracer(esds_obs::OpTracer::to_writer(Box::new(std::io::sink()), 16)),
        _ => unreachable!("unknown obs mode {tag}"),
    };
    let mut svc = esds_runtime::RuntimeService::start(KvStore, cfg);
    let handles: Vec<_> = (0..clients).map(|_| svc.client()).collect();
    let start = Instant::now();
    let threads: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(ci, mut c)| {
            std::thread::spawn(move || {
                for i in 0..ops_per_client {
                    let key = format!("k{}", (ci * ops_per_client + i) % 64);
                    let id = c.submit(esds_datatypes::KvOp::put(key, "x"), &[], false);
                    c.await_response(id, Duration::from_secs(60))
                        .expect("obs-overhead op unanswered");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    let secs = start.elapsed().as_secs_f64();
    svc.shutdown();
    (clients * ops_per_client) as f64 / secs.max(f64::EPSILON)
}

/// F2 — §11.1 strict-ratio: latency vs % strict at fixed load. Returns
/// `(strict_percent, mean_latency_secs)`.
pub fn fig_strict_latency(n: usize, ops_per_client: usize) -> Vec<(u32, f64)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for pct in (0..=100).step_by(10) {
        let cfg = standard_config(n, 7_000 + pct as u64);
        let mut sys = SimSystem::new(Counter, cfg);
        let w = OpenLoopWorkload::new(n, ops_per_client, SimDuration::from_millis(100))
            .with_strict_fraction(pct as f64 / 100.0);
        let mut src = CounterSource::new(0.5, 13);
        apply_open_loop(&mut sys, &w, &mut src);
        sys.run_until_quiescent();
        let mean = mean_latency_secs(&sys, None).expect("answered ops");
        rows.push(vec![format!("{pct}%"), format!("{:.1} ms", mean * 1e3)]);
        out.push((pct, mean));
    }
    print_table(
        "F2 — mean latency vs strict fraction (paper §11.1: \"latency increased linearly\")",
        &["strict requests", "mean latency"],
        &rows,
    );
    out
}

/// One rung of the whole-object read ladder measured by
/// [`tab_response_bounds`]: the read mode and its mean/worst latency.
#[derive(Clone, Debug)]
pub struct LadderRung {
    /// `"eventual gather"`, `"strict home read"`, or
    /// `"barrier-strict gather"`.
    pub mode: &'static str,
    /// Mean response latency of the mode.
    pub mean: SimDuration,
    /// Worst response latency of the mode.
    pub max: SimDuration,
}

/// T1 — Theorem 9.3: measured worst-case response time per class vs the
/// analytic bound δ(x), plus the whole-object read ladder on a sharded
/// deployment (eventual gather < strict home read < barrier-strict
/// gather). Returns the `(class, measured, bound)` triples and the
/// ladder rungs.
pub fn tab_response_bounds(
    seed: u64,
) -> (Vec<(OpClass, SimDuration, SimDuration)>, Vec<LadderRung>) {
    // Round-robin relay so `prev` dependencies genuinely cross replicas;
    // with client-attached front ends the paper's locality remark applies
    // and nonstrict latency collapses to 2·df regardless of prev.
    let cfg = standard_config(3, seed).with_relay(RelayPolicy::RoundRobin);
    let (df, dg, g) = (cfg.df(), cfg.dg(), cfg.gossip_interval);
    let mut sys = SimSystem::new(Counter, cfg);
    // Adversarial workload for the bounds: each round submits an anchor,
    // then 1 ms later a dependent op (which lands on a replica that cannot
    // have the anchor yet and must wait for gossip) and a strict op.
    use esds_datatypes::CounterOp;
    let c = sys.add_client(0);
    for k in 0..40u64 {
        let at = SimTime::from_millis(40 * k);
        let anchor = sys.submit_at(at, c, CounterOp::Increment(1), &[], false);
        sys.submit_at(
            at + SimDuration::from_millis(1),
            c,
            CounterOp::Read,
            &[anchor],
            false,
        );
        if k % 2 == 0 {
            sys.submit_at(
                at + SimDuration::from_millis(2),
                c,
                CounterOp::Read,
                &[],
                true,
            );
        }
    }
    sys.run_until_quiescent();

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (class, name) in [
        (OpClass::NonstrictEmptyPrev, "nonstrict, prev = ∅ (δ = 2df)"),
        (
            OpClass::NonstrictWithPrev,
            "nonstrict, prev ≠ ∅ (δ = 2df+g+dg)",
        ),
        (OpClass::Strict, "strict (δ = 2df+3(g+dg))"),
    ] {
        let bound = class.delta_bound(df, dg, g);
        let measured = max_latency(&sys, class).unwrap_or(SimDuration::ZERO);
        rows.push(vec![
            name.to_string(),
            format!("{measured}"),
            format!("{bound}"),
            if measured <= bound {
                "✓".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        out.push((class, measured, bound));
    }
    print_table(
        "T1 — Theorem 9.3 response-time bounds (df=5ms, dg=5ms, g=20ms)",
        &["class", "measured max", "bound δ(x)", "within bound"],
        &rows,
    );

    // T1b — the whole-object read ladder on a two-shard deployment with
    // the same timing parameters. Each round writes one key per shard,
    // then issues the three read modes at the same instant:
    //   * an *eventual* gather (`Keys`, nonstrict) — fan out one
    //     sub-operation per shard, merge the answers, no stability wait;
    //   * a *strict home* read (strict `Get` on one key) — the classic
    //     Theorem 9.3 strict path confined to a single shard, which is
    //     all the pre-fix router could offer a whole-object query (and
    //     it answered from that one slice);
    //   * a *barrier-strict* gather (`Keys`, strict) — snapshot each
    //     shard's answered frontier, wait until it is stable
    //     everywhere, then run strict sub-operations on every shard.
    // Truth across shards is paid for in stability waits, never given
    // up: the means must form the ladder.
    use esds_datatypes::KvOp;
    let mut ssys = ShardedSimSystem::new(
        KvStore,
        ShardedSystemConfig::new(2, standard_config(3, seed ^ 0x9e37)),
    );
    let router = ssys.router();
    let key_on = |shard: u32| {
        (0..10_000)
            .map(|i| format!("k{i}"))
            .find(|k| router.shard_of_key(k) == shard)
            .expect("both shards own keys")
    };
    let (k0, k1) = (key_on(0), key_on(1));
    let c = ssys.add_client(0);
    let mut rounds = Vec::new();
    for k in 0..24u64 {
        let at = SimTime::from_millis(80 * k);
        ssys.submit_at(at, c, KvOp::put(&k0, format!("a{k}")), &[], false);
        ssys.submit_at(at, c, KvOp::put(&k1, format!("b{k}")), &[], false);
        // Issue the reads just after the writes have *answered* (2·df)
        // but before they are *stable everywhere* (df + g + dg): the
        // barrier-strict gather's frontier then contains this round's
        // writes and the stability wait is genuinely nonzero.
        let t = at + SimDuration::from_millis(12);
        let eventual = ssys.submit_at(t, c, KvOp::Keys, &[], false);
        let home = ssys.submit_at(t, c, KvOp::get(&k0), &[], true);
        let barrier = ssys.submit_at(t, c, KvOp::Keys, &[], true);
        rounds.push([eventual, home, barrier]);
    }
    ssys.run_until_quiescent();
    let mut ladder = Vec::new();
    let mut ladder_rows = Vec::new();
    for (slot, mode) in [
        (0usize, "eventual gather"),
        (1, "strict home read"),
        (2, "barrier-strict gather"),
    ] {
        let lats: Vec<SimDuration> = rounds
            .iter()
            .map(|r| {
                let (sub, done) = ssys.op_timing(r[slot]).expect("issued above");
                done.expect("quiescent system answered everything") - sub
            })
            .collect();
        let mean = lats.iter().fold(SimDuration::ZERO, |acc, l| acc + *l) / lats.len() as u64;
        let max = lats.iter().copied().max().expect("nonempty rounds");
        ladder_rows.push(vec![mode.to_string(), format!("{mean}"), format!("{max}")]);
        ladder.push(LadderRung { mode, mean, max });
    }
    print_table(
        "T1b — whole-object read ladder, 2 shards (eventual < strict home < barrier-strict)",
        &["mode", "mean", "max"],
        &ladder_rows,
    );
    (out, ladder)
}

/// T2 — Lemma 9.2: time until each operation is done at *every* replica,
/// vs the bound `df + g + dg`. Returns `(measured_max, bound)`.
pub fn tab_stabilization(seed: u64) -> (SimDuration, SimDuration) {
    let cfg = standard_config(4, seed);
    let bound = cfg.df() + cfg.gossip_interval + cfg.dg();
    let mut sys = SimSystem::new(Counter, cfg);
    let w = OpenLoopWorkload::new(4, 30, SimDuration::from_millis(25)).with_prev_fraction(0.3);
    let mut src = CounterSource::new(0.3, 9);
    apply_open_loop(&mut sys, &w, &mut src);
    sys.run_until_quiescent();

    let measured = sys
        .op_times()
        .values()
        .filter_map(|t| t.done_everywhere.map(|d| d.duration_since(t.submitted)))
        .max()
        .expect("ops stabilized");
    print_table(
        "T2 — Lemma 9.2 done-at-every-replica bound",
        &["measured max", "bound df+g+dg", "within bound"],
        &[vec![
            format!("{measured}"),
            format!("{bound}"),
            if measured <= bound {
                "✓".into()
            } else {
                "VIOLATED".into()
            },
        ]],
    );
    (measured, bound)
}

/// T3 — Theorem 9.4: the timing assumptions are violated during an outage
/// window and restored at `T`; response times measured from `max(submit,
/// T)` must satisfy the same bounds. Returns `(class, measured, bound)`.
pub fn tab_fault_recovery(seed: u64) -> Vec<(OpClass, SimDuration, SimDuration)> {
    let cfg = standard_config(3, seed).with_retry(SimDuration::from_millis(40));
    let (df, dg, g) = (cfg.df(), cfg.dg(), cfg.gossip_interval);
    let slow = ChannelConfig::fixed(SimDuration::from_millis(500));
    let normal_fr = cfg.fr_channel;
    let normal_rr = cfg.rr_channel;
    let mut sys = SimSystem::new(Counter, cfg);

    // Violate timing in [0, 600ms): all channels 100× slower.
    sys.schedule_fault(
        SimTime::ZERO,
        FaultEvent::SetChannels { fr: slow, rr: slow },
    );
    let restore_at = SimTime::from_millis(600);
    sys.schedule_fault(
        restore_at,
        FaultEvent::SetChannels {
            fr: normal_fr,
            rr: normal_rr,
        },
    );

    let w = OpenLoopWorkload::new(3, 20, SimDuration::from_millis(40))
        .with_strict_fraction(0.3)
        .with_prev_fraction(0.3);
    let mut src = CounterSource::new(0.5, 3);
    apply_open_loop(&mut sys, &w, &mut src);
    sys.run_until_quiescent();

    // Measured from the later of submission and restoration, plus one
    // retry period (requests sent during the outage crawl through the slow
    // channel; the paper's model re-sends them instantly at T, ours at the
    // next retry tick).
    let retry = SimDuration::from_millis(40);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (class, name) in [
        (OpClass::NonstrictEmptyPrev, "nonstrict, prev = ∅"),
        (OpClass::NonstrictWithPrev, "nonstrict, prev ≠ ∅"),
        (OpClass::Strict, "strict"),
    ] {
        let bound = class.delta_bound(df, dg, g) + retry;
        let measured = sys
            .op_times()
            .values()
            .filter(|t| t.class == class)
            .filter_map(|t| {
                let r = t.responded?;
                let base = t.submitted.max(restore_at);
                Some(r.saturating_duration_since(base))
            })
            .max()
            .unwrap_or(SimDuration::ZERO);
        rows.push(vec![
            name.to_string(),
            format!("{measured}"),
            format!("{bound}"),
            if measured <= bound {
                "✓".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        out.push((class, measured, bound));
    }
    print_table(
        "T3 — Theorem 9.4: bounds hold from the end of the failure period (+1 retry period)",
        &[
            "class",
            "measured max from recovery",
            "bound δ(x)+retry",
            "within bound",
        ],
        &rows,
    );
    out
}

/// A1 — §10.1 memoization ablation: data-type applies spent per response,
/// naive vs memoized. Returns `(naive_applies_per_resp, memo_applies_per_resp)`.
pub fn tab_memoization(ops: usize) -> (f64, f64) {
    let run = |replica: ReplicaConfig| -> f64 {
        let cfg = standard_config(3, 77).with_replica(replica);
        let mut sys = SimSystem::new(Counter, cfg);
        let w = OpenLoopWorkload::new(3, ops, SimDuration::from_millis(10));
        let mut src = CounterSource::new(0.5, 21);
        apply_open_loop(&mut sys, &w, &mut src);
        sys.run_until_quiescent();
        let stats = sys.replica_stats();
        let applies: u64 = stats.iter().map(|s| s.response_applies).sum();
        let resp: u64 = stats.iter().map(|s| s.responses).sum();
        applies as f64 / resp.max(1) as f64
    };
    let naive = run(ReplicaConfig::basic());
    let memo = run(ReplicaConfig::default());
    print_table(
        "A1 — §10.1 memoization: apply() calls per response",
        &["variant", "applies/response"],
        &[
            vec!["naive recompute (ESDS-Alg)".into(), format!("{naive:.1}")],
            vec!["memoized (ESDS-Alg′)".into(), format!("{memo:.1}")],
        ],
    );
    (naive, memo)
}

/// A2 — §10.3 commutativity ablation on a fully-commutative workload
/// (grow-only set) under SafeUsers: the Commute variant answers from its
/// current state. Returns `(recompute_applies_per_resp,
/// eager_applies_per_resp)` and asserts identical responses.
pub fn tab_commute(ops: usize) -> (f64, f64) {
    let run = |replica: ReplicaConfig| -> (
        Vec<(esds_core::OpId, <GSet as SerialDataType>::Value)>,
        f64,
        f64,
    ) {
        let cfg = standard_config(3, 55).with_replica(replica);
        let mut sys = SimSystem::new(GSet, cfg);
        // SafeUsers: order non-commuting pairs explicitly via SafeSubmitter.
        let mut safe = SafeSubmitter::new(GSet);
        let mut src = GSetSource::new(0.4, 16, 99);
        let clients: Vec<_> = (0..3).map(|i| sys.add_client(i)).collect();
        use esds_harness::OperatorSource;
        for seq in 0..ops as u64 {
            for c in &clients {
                let op = src.next_op(*c, seq);
                let prev = safe.prev_for(&op);
                let strict = seq % 7 == 0;
                let id = sys.submit(
                    *c,
                    op.clone(),
                    &prev.iter().copied().collect::<Vec<_>>(),
                    strict,
                );
                safe.record_with_prev(id, op, prev);
                sys.run_for(SimDuration::from_millis(3));
            }
        }
        sys.run_until_quiescent();
        let stats = sys.replica_stats();
        let resp: u64 = stats.iter().map(|s| s.responses).sum::<u64>().max(1);
        let recompute = stats.iter().map(|s| s.response_applies).sum::<u64>() as f64 / resp as f64;
        let eager = stats.iter().map(|s| s.eager_applies).sum::<u64>() as f64 / resp as f64;
        let mut responses: Vec<_> = sys
            .responses_log()
            .iter()
            .map(|(id, v, _)| (*id, v.clone()))
            .collect();
        responses.sort_by_key(|(id, _)| *id);
        responses.dedup();
        (responses, recompute, eager)
    };
    let (resp_a, recompute, _) = run(ReplicaConfig::default());
    let (resp_b, _, eager) = run(ReplicaConfig::commute());
    assert_eq!(
        resp_a, resp_b,
        "Commute must answer identically under SafeUsers"
    );
    print_table(
        "A2 — §10.3 Commute variant on a commutative workload (identical responses verified)",
        &[
            "variant",
            "response-path applies/response",
            "do-time applies/response",
        ],
        &[
            vec![
                "recompute (ESDS-Alg′)".into(),
                format!("{recompute:.2}"),
                "0.00".into(),
            ],
            vec![
                "Commute (Fig. 11)".into(),
                "0.00".into(),
                format!("{eager:.2}"),
            ],
        ],
    );
    (recompute, eager)
}

/// One measured cell of the A3 gossip-strategy sweep.
#[derive(Clone, Copy, Debug)]
pub struct GossipStrategyPoint {
    /// Human-readable strategy name.
    pub strategy: &'static str,
    /// Gossip interval `g` in milliseconds.
    pub g_ms: u64,
    /// Gossip messages sent per completed operation.
    pub msgs_per_op: f64,
    /// Approximate gossip bytes sent per completed operation.
    pub bytes_per_op: f64,
    /// Completed operations per virtual second.
    pub ops_per_sec: f64,
}

/// Runs one strategy/interval cell of the A3 sweep (the same 4-replica
/// open-loop workload for every cell), verifying convergence.
fn gossip_strategy_run(
    replica: ReplicaConfig,
    broadcast: bool,
    g_ms: u64,
    ops: usize,
) -> (f64, f64, f64) {
    let mut cfg = standard_config(4, 31)
        .with_replica(replica)
        .with_gossip_interval(SimDuration::from_millis(g_ms));
    cfg.broadcast_gossip = broadcast;
    let mut sys = SimSystem::new(Counter, cfg);
    let w = OpenLoopWorkload::new(4, ops, SimDuration::from_millis(10)).with_strict_fraction(0.2);
    let mut src = CounterSource::new(0.5, 8);
    apply_open_loop(&mut sys, &w, &mut src);
    sys.run_until_quiescent();
    check_converged(&sys.local_orders(), &sys.replica_states())
        .expect("all strategies must converge");
    let (msgs, bytes) = sys.gossip_traffic();
    let total = (4 * ops) as f64;
    let end = latest_response(&sys);
    let ops_per_sec = if end > SimTime::ZERO {
        sys.completed_count() as f64 / end.as_secs_f64()
    } else {
        0.0
    };
    (msgs as f64 / total, bytes as f64 / total, ops_per_sec)
}

/// A3 — §10.4 gossip strategies: messages, bytes, and throughput per
/// operation, swept across gossip intervals. The headline comparison is
/// Full vs Batched: Full re-ships the whole `(R, D, L, S)` history every
/// tick, Batched ships only what the peer has not acknowledged plus
/// summary watermarks — O(unacknowledged + #clients) bytes, and with 4
/// ticks per exchange 1/4 the messages. The GC and broadcast variants of
/// Full are included at each interval for continuity with the paper's
/// ablation. Returns one [`GossipStrategyPoint`] per (strategy, interval)
/// cell.
pub fn tab_gossip_strategies(ops: usize) -> Vec<GossipStrategyPoint> {
    let full = ReplicaConfig::default().with_gossip(GossipStrategy::Full);
    let strategies: [(&'static str, ReplicaConfig, bool); 5] = [
        ("full snapshot (paper §6)", full, false),
        (
            "batched ×1 (§10.2+§10.4, default)",
            ReplicaConfig::default(),
            false,
        ),
        (
            "batched ×4 (§10.2+§10.4)",
            ReplicaConfig::default().with_batched(4),
            false,
        ),
        ("full + GC (§10.2)", full.with_gc(), false),
        ("broadcast (§10.4)", full, true),
    ];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for g_ms in [10u64, 20, 40] {
        for (name, replica, broadcast) in strategies {
            let (msgs_per_op, bytes_per_op, ops_per_sec) =
                gossip_strategy_run(replica, broadcast, g_ms, ops);
            rows.push(vec![
                name.to_string(),
                format!("{g_ms} ms"),
                format!("{msgs_per_op:.1}"),
                format!("{bytes_per_op:.0}"),
                format!("{ops_per_sec:.0}"),
            ]);
            out.push(GossipStrategyPoint {
                strategy: name,
                g_ms,
                msgs_per_op,
                bytes_per_op,
                ops_per_sec,
            });
        }
    }
    print_table(
        "A3 — §10.4 gossip strategies × gossip interval (4 replicas; convergence verified for each cell)",
        &[
            "strategy",
            "g",
            "gossip msgs / op",
            "gossip bytes / op",
            "ops / s",
        ],
        &rows,
    );
    out
}

/// A5 — gossip-interval sensitivity: Theorem 9.3 predicts strict latency
/// grows affinely in `g` (δ = 2df + 3(g + dg)) while nonstrict empty-prev
/// latency stays at 2df. Returns `(g_ms, nonstrict_mean_s, strict_mean_s)`.
pub fn tab_gossip_interval(ops_per_client: usize) -> Vec<(u64, f64, f64)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for g_ms in [5u64, 10, 20, 40, 80] {
        let cfg =
            standard_config(3, 900 + g_ms).with_gossip_interval(SimDuration::from_millis(g_ms));
        let mut sys = SimSystem::new(Counter, cfg);
        let w = OpenLoopWorkload::new(3, ops_per_client, SimDuration::from_millis(4 * g_ms))
            .with_strict_fraction(0.5);
        let mut src = CounterSource::new(0.5, 23);
        apply_open_loop(&mut sys, &w, &mut src);
        sys.run_until_quiescent();
        let nonstrict = mean_latency_secs(&sys, Some(OpClass::NonstrictEmptyPrev))
            .expect("nonstrict ops answered");
        let strict = mean_latency_secs(&sys, Some(OpClass::Strict)).expect("strict ops answered");
        rows.push(vec![
            format!("{g_ms} ms"),
            format!("{:.1} ms", nonstrict * 1e3),
            format!("{:.1} ms", strict * 1e3),
        ]);
        out.push((g_ms, nonstrict, strict));
    }
    print_table(
        "A5 — gossip-interval sensitivity (δ(strict) = 2df + 3(g + dg): affine in g; nonstrict flat)",
        &["gossip interval g", "nonstrict mean", "strict mean"],
        &rows,
    );
    out
}

/// A4 — §10.2 identifier summarization: gossip sizes with `D` and `S` as
/// flat id lists (the abstract algorithm's snapshot, with §10.2 GC so id
/// sets dominate) vs the batched exchange, which carries `D`, `S` and its
/// handshake as `IdSummary` watermark vectors (the multipart-timestamp
/// style). Two deployments run the same requests in lockstep; both the
/// sizing model and the real wire encoding are measured. Returns
/// `(plain_wire_bytes, batched_wire_bytes)` totals.
pub fn tab_id_summary(ops_per_client: usize) -> (u64, u64) {
    use bytes::BytesMut;
    use esds_alg::{GossipEnvelope, Replica};
    use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId};
    use esds_datatypes::{CounterOp, CounterValue};
    use esds_wire::{encode_message, WireMessage};

    const N: usize = 3;
    let deployment = |cfg: ReplicaConfig| -> Vec<Replica<Counter>> {
        (0..N)
            .map(|i| Replica::new(Counter, ReplicaId(i as u32), N, cfg))
            .collect()
    };
    let mut plain = deployment(
        ReplicaConfig::default()
            .with_gossip(GossipStrategy::Full)
            .with_gc(),
    );
    let mut batched = deployment(ReplicaConfig::default());

    let mut plain_model = 0u64;
    let mut summary_model = 0u64;
    let mut plain_wire = 0u64;
    let mut summary_wire = 0u64;
    let mut msgs = 0u64;

    let wire_len = |msg: &WireMessage<CounterOp, CounterValue>| -> u64 {
        let mut buf = BytesMut::new();
        encode_message(msg, &mut buf);
        buf.len() as u64
    };
    let mut gossip_round = |plain: &mut Vec<Replica<Counter>>,
                            batched: &mut Vec<Replica<Counter>>| {
        for from in 0..N {
            for to in 0..N {
                if from == to {
                    continue;
                }
                let peer = ReplicaId(to as u32);
                let g = plain[from].make_gossip(peer);
                msgs += 1;
                plain_model += g.approx_bytes() as u64;
                plain_wire += wire_len(&WireMessage::Gossip(g.clone()));
                plain[to].on_gossip(g);
                let Some(GossipEnvelope::Batched(b)) = batched[from].poll_gossip(peer) else {
                    unreachable!("batch_interval 1 emits a batch every tick");
                };
                summary_model += b.approx_bytes() as u64;
                summary_wire += wire_len(&WireMessage::GossipBatched(b.clone()));
                batched[to].on_batched_gossip(b);
            }
        }
    };

    // Three clients, dense per-client sequence numbers (the common case
    // the watermark representation is built for); gossip every 5 ops.
    for seq in 0..ops_per_client as u64 {
        for c in 0..3u32 {
            let id = OpId::new(ClientId(c), seq);
            let desc = OpDescriptor::new(id, CounterOp::Increment(1));
            plain[c as usize % N].on_request(desc.clone());
            batched[c as usize % N].on_request(desc);
        }
        if seq % 5 == 4 {
            gossip_round(&mut plain, &mut batched);
        }
    }
    // Rounds to reach stability everywhere.
    for _ in 0..3 {
        gossip_round(&mut plain, &mut batched);
    }

    print_table(
        "A4 — §10.2 id summarization: gossip bytes, flat id lists vs watermark summaries",
        &[
            "encoding",
            "total gossip bytes (model)",
            "total gossip bytes (wire)",
            "bytes/message (wire)",
        ],
        &[
            vec![
                "flat id lists (snapshot + §10.2 GC)".into(),
                format!("{plain_model}"),
                format!("{plain_wire}"),
                format!("{:.0}", plain_wire as f64 / msgs as f64),
            ],
            vec![
                "IdSummary watermarks (batched exchange)".into(),
                format!("{summary_model}"),
                format!("{summary_wire}"),
                format!("{:.0}", summary_wire as f64 / msgs as f64),
            ],
            vec![
                "reduction".into(),
                format!("{:.1}×", plain_model as f64 / summary_model.max(1) as f64),
                format!("{:.1}×", plain_wire as f64 / summary_wire.max(1) as f64),
                String::new(),
            ],
        ],
    );
    (plain_wire, summary_wire)
}

/// A6 — §10.2 local compaction: descriptors retained per replica over a
/// long run, with and without periodic [`esds_alg::Replica::compact`]
/// calls. Returns `(ops_issued, retained_no_compaction,
/// retained_with_compaction)` checkpoints.
pub fn tab_memory(total_ops: usize) -> Vec<(usize, usize, usize)> {
    use esds_alg::Replica;
    use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId};
    use esds_datatypes::CounterOp;

    const N: usize = 3;
    let run = |compact: bool| -> Vec<(usize, usize)> {
        let mut reps: Vec<Replica<Counter>> = (0..N)
            .map(|i| Replica::new(Counter, ReplicaId(i as u32), N, ReplicaConfig::default()))
            .collect();
        let mut checkpoints = Vec::new();
        for seq in 0..total_ops as u64 {
            let id = OpId::new(ClientId(0), seq);
            let desc = OpDescriptor::new(id, CounterOp::Increment(1));
            reps[(seq % N as u64) as usize].on_request(desc);
            if seq % 5 == 4 {
                // A gossip round, then (optionally) compaction everywhere.
                for from in 0..N {
                    for to in 0..N {
                        if from != to {
                            let g = reps[from].make_gossip(ReplicaId(to as u32));
                            reps[to].on_gossip(g);
                        }
                    }
                }
                if compact {
                    for r in &mut reps {
                        r.compact();
                    }
                }
            }
            if (seq + 1) % (total_ops as u64 / 5).max(1) == 0 {
                let max = reps
                    .iter()
                    .map(|r| r.retained_descriptors())
                    .max()
                    .unwrap_or(0);
                checkpoints.push((seq as usize + 1, max));
            }
        }
        checkpoints
    };
    let plain = run(false);
    let compacted = run(true);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for ((ops, no_gc), (_, gc)) in plain.iter().zip(&compacted) {
        rows.push(vec![ops.to_string(), no_gc.to_string(), gc.to_string()]);
        out.push((*ops, *no_gc, *gc));
    }
    print_table(
        "A6 — §10.2 local compaction: max descriptors retained at any replica",
        &["ops issued", "no compaction", "with compaction"],
        &rows,
    );
    out
}

/// B1 — the consistency/performance trade-off: all-nonstrict ESDS vs
/// all-strict ESDS (= atomic object, Corollary 5.9) vs a centralized
/// single replica. Returns `(name, mean_latency_secs)`.
pub fn tab_baseline_compare(ops: usize) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (name, n, strict) in [
        ("ESDS, 5 replicas, nonstrict", 5usize, 0.0f64),
        ("ESDS, 5 replicas, all-strict (atomic)", 5, 1.0),
        ("centralized, 1 replica", 1, 0.0),
    ] {
        let cfg = standard_config(n, 61);
        let mut sys = SimSystem::new(Counter, cfg);
        let w = OpenLoopWorkload::new(5, ops, SimDuration::from_millis(50))
            .with_strict_fraction(strict);
        let mut src = CounterSource::new(0.5, 17);
        apply_open_loop(&mut sys, &w, &mut src);
        sys.run_until_quiescent();
        let mean = mean_latency_secs(&sys, None).expect("answered");
        rows.push(vec![name.to_string(), format!("{:.1} ms", mean * 1e3)]);
        out.push((name, mean));
    }
    print_table(
        "B1 — consistency vs performance (same load, same channels)",
        &["service", "mean latency"],
        &rows,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline shapes, verified in miniature (full sizes run in the
    /// experiment binaries).
    #[test]
    fn shapes_hold_in_miniature() {
        let (bounds, ladder) = tab_response_bounds(3);
        for (_, measured, bound) in bounds {
            assert!(measured <= bound);
        }
        // The whole-object read ladder: the eventual gather answers
        // before the strict modes, and the barrier-strict gather pays
        // at least the strict home read's price.
        assert_eq!(ladder.len(), 3);
        assert!(
            ladder[0].mean < ladder[1].mean && ladder[1].mean <= ladder[2].mean,
            "ladder out of order: {ladder:?}"
        );
        let (measured, bound) = tab_stabilization(4);
        assert!(measured <= bound);
    }

    #[test]
    fn strict_latency_increases() {
        let series = fig_strict_latency(3, 6);
        let first = series.first().expect("series").1;
        let last = series.last().expect("series").1;
        assert!(last > first * 2.0, "strict latency must rise: {series:?}");
    }

    #[test]
    fn wire_sharding_completes_in_miniature() {
        // Miniature of F5 over real loopback sockets: all three shard
        // counts complete and report nonzero wall-clock throughput. The
        // S=2 > S=1 *ordering* is asserted only at the full size (the
        // binary / run_all full mode) — wall-clock ratios at this tiny
        // history would flake under parallel test load.
        let series = fig_wire_shards(2, 12);
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|(_, tp)| *tp > 0.0), "{series:?}");
    }

    #[test]
    fn sharding_scales_throughput() {
        // Miniature of F3: a saturated single group vs four groups. The
        // full-size binary sweeps S ∈ {1, 2, 4, 8}.
        let tp1 = shard_run(1, 6, 40);
        let tp4 = shard_run(4, 6, 40);
        assert!(
            tp4 > tp1 * 1.5,
            "4 shards must beat 1 by ≥1.5×: {tp4:.0} vs {tp1:.0}"
        );
    }

    #[test]
    fn rebalance_recovers_throughput() {
        // The ISSUE-4 acceptance criterion in miniature: a workload
        // running while a shard is added completes, and post-migration
        // throughput is at least the pre-migration 2-shard baseline (the
        // full-size binary shows the 3-group speedup directly).
        let phases = fig_rebalance(9, 200);
        assert_eq!(phases.len(), 3);
        let before = phases[0].ops_per_sec;
        let after = phases[2].ops_per_sec;
        assert!(before > 0.0 && after > 0.0);
        assert!(
            after >= before,
            "post-migration throughput {after:.0} must be ≥ pre-migration {before:.0}"
        );
    }

    #[test]
    fn batched_gossip_beats_full_on_bytes_and_messages() {
        // The PR 3 acceptance criterion in miniature: at steady state the
        // batched strategy transfers strictly fewer bytes per operation
        // than full snapshots (O(delta + #clients) vs O(history)) and,
        // with 4 ticks per exchange, strictly fewer messages.
        let full = ReplicaConfig::default().with_gossip(GossipStrategy::Full);
        let (full_msgs, full_bytes, _) = gossip_strategy_run(full, false, 20, 25);
        let (batched_msgs, batched_bytes, _) =
            gossip_strategy_run(ReplicaConfig::default().with_batched(4), false, 20, 25);
        assert!(
            batched_bytes < full_bytes,
            "batched bytes/op {batched_bytes:.0} must be < full {full_bytes:.0}"
        );
        assert!(
            batched_msgs < full_msgs,
            "batched msgs/op {batched_msgs:.1} must be < full {full_msgs:.1}"
        );
    }

    #[test]
    fn memoization_reduces_applies() {
        let (naive, memo) = tab_memoization(15);
        assert!(memo < naive, "memoized {memo} !< naive {naive}");
    }

    #[test]
    fn strict_latency_tracks_gossip_interval() {
        let series = tab_gossip_interval(4);
        let (g0, ns0, s0) = series[0];
        let (g1, ns1, s1) = *series.last().expect("series");
        // Strict latency grows with g; nonstrict stays flat.
        assert!(s1 > s0 * 2.0, "strict must grow with g: {series:?}");
        assert!(
            (ns1 - ns0).abs() < 1e-3,
            "nonstrict must stay flat: {series:?}"
        );
        assert!(g1 > g0);
    }

    #[test]
    fn compaction_bounds_memory() {
        let series = tab_memory(100);
        let (_, no_gc, gc) = *series.last().expect("checkpoints");
        assert!(no_gc >= 100, "uncompacted replicas retain every descriptor");
        assert!(
            gc * 4 < no_gc,
            "compaction must bound retention: {gc} vs {no_gc}"
        );
    }

    #[test]
    fn id_summaries_shrink_gossip() {
        // The reduction grows with history length (watermarks are O(#clients),
        // id lists O(#ops)); even this miniature must show a clear win, and
        // the full-size binary (200 ops/client) shows ~4×.
        let (plain, summarized) = tab_id_summary(40);
        assert!(
            summarized * 3 < plain * 2,
            "summaries must cut gossip bytes by ≥1.5×: {summarized} vs {plain}"
        );
    }
}

//! Closed-loop runs of the real deployments: a sharded TCP service and
//! the threaded durable runtime. Each call launches one fresh
//! deployment, drives a fixed, pre-generated history through it, lets
//! it go quiet, shuts it down and checks its answers.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use esds_alg::{Persistence, Replica, ReplicaConfig, ReplicaStats};
use esds_core::{OpId, ReplicaId, SerialDataType, ShardedOpId};
use esds_datatypes::{KvOp, KvStore, KvValue};
use esds_obs::MetricsRegistry;
use esds_runtime::{RuntimeClient, RuntimeConfig, RuntimeService};
use esds_store::{DurableConfig, DurableStore, FileStorage};
use esds_wire::{ShardedWireClient, ShardedWireConfig, ShardedWireService};

use crate::gen::{key_name, GenOp};
use crate::trace::{Span, Spans};

/// How long one operation may stay unanswered before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a finished deployment may take to go quiet (every operation
/// stable at every replica) before the run is declared broken.
const QUIET_TIMEOUT: Duration = Duration::from_secs(30);

/// The deployment a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// `ShardedWireService` on loopback: `shards` × `replicas`.
    Tcp { shards: u32, replicas: usize },
    /// `RuntimeService::start_durable` with one `DurableStore` on
    /// `FileStorage` per replica, `net_delay` 0.
    RuntimeWal { replicas: usize },
}

impl Deployment {
    pub fn shards(self) -> u32 {
        match self {
            Deployment::Tcp { shards, .. } => shards,
            Deployment::RuntimeWal { .. } => 1,
        }
    }

    pub fn replicas(self) -> usize {
        match self {
            Deployment::Tcp { replicas, .. } | Deployment::RuntimeWal { replicas } => replicas,
        }
    }
}

/// One operation as the client saw it.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub strict: bool,
    /// Submit to answer, ms; `None` if unanswered within [`OP_TIMEOUT`].
    pub latency_ms: Option<f64>,
    /// Submit time, seconds since the window opened.
    pub submit_s: f64,
    /// Answer time, seconds since the window opened.
    pub done_s: Option<f64>,
}

/// Registry counters read at the end of the timed window, plus the
/// watermark gauges sampled through it (traced runs only).
#[derive(Clone, Debug, Default)]
pub struct WindowCounters {
    pub tcp_gossip_msgs: u64,
    pub tcp_gossip_bytes: u64,
    pub rt_requests: u64,
    pub rt_gossip_msgs: u64,
    pub resends: u64,
    pub unstable_window_max: u64,
    pub watermark_age_ms_max: u64,
}

/// What a traced deployment adds to its result.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub counters: WindowCounters,
    /// `Replica::stats()` summed over every replica of the shut-down
    /// deployment.
    pub stats: ReplicaStats,
    /// `Replica::retained_descriptors()` summed the same way.
    pub retained_descriptors: u64,
}

pub struct DeploymentResult {
    pub setup_s: f64,
    /// The process's peak resident set while this deployment ran, MB.
    pub rss_peak_mb: f64,
    /// The share of the host's CPU time the hypervisor gave to other
    /// guests (`steal` in `/proc/stat`) during the timed window.
    pub steal_share: f64,
    pub window_s: f64,
    pub records: Vec<OpRecord>,
    /// Failures of the correctness gate (empty when every check passed).
    pub wrong: Vec<String>,
    pub traced: Option<Traced>,
}

impl DeploymentResult {
    pub fn answered(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.latency_ms.is_some())
            .count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.len() as u64 - self.answered()
    }
}

/// Span recording for a traced deployment: the shared epoch, and the
/// base of this deployment's op ids.
#[derive(Clone, Copy)]
pub struct TraceCtx {
    pub epoch: Instant,
    pub op_base: u64,
}

/// The calls the closed loop makes on a deployment's client handle.
trait BenchClient: Send + 'static {
    type Id: Copy + Send + 'static;
    fn submit(&mut self, op: KvOp, prev: Option<Self::Id>, strict: bool) -> Self::Id;
    fn await_value(&mut self, id: Self::Id) -> Option<KvValue>;
}

impl BenchClient for ShardedWireClient<KvStore> {
    type Id = ShardedOpId;
    fn submit(&mut self, op: KvOp, prev: Option<ShardedOpId>, strict: bool) -> ShardedOpId {
        ShardedWireClient::submit(self, op, prev.as_slice(), strict)
    }
    fn await_value(&mut self, id: ShardedOpId) -> Option<KvValue> {
        self.await_response(id, OP_TIMEOUT)
    }
}

impl BenchClient for RuntimeClient<KvStore> {
    type Id = OpId;
    fn submit(&mut self, op: KvOp, prev: Option<OpId>, strict: bool) -> OpId {
        RuntimeClient::submit(self, op, prev.as_slice(), strict)
    }
    fn await_value(&mut self, id: OpId) -> Option<KvValue> {
        self.await_response(id, OP_TIMEOUT)
    }
}

pub fn kv_op(op: &GenOp) -> KvOp {
    match op {
        GenOp::Put { key, val } => KvOp::put(key_name(*key), val.clone()),
        GenOp::Get { key, .. } => KvOp::get(key_name(*key)),
        GenOp::Keys => KvOp::Keys,
    }
}

/// One client thread's outcome.
struct Driven<C: BenchClient> {
    client: C,
    /// Per op: its id and the answer, if any.
    answers: Vec<(C::Id, Option<KvValue>)>,
    submitted: Vec<Instant>,
    done: Vec<Option<Instant>>,
    spans: Vec<Span>,
}

/// The closed loop of one client: submit, wait for the answer, next.
fn drive<C: BenchClient>(
    client: C,
    ops: &[GenOp],
    gate: &Barrier,
    trace: Option<(TraceCtx, u64)>,
) -> Driven<C> {
    let mut spans = trace.map(|(t, c)| Spans::new(t.epoch, (t.op_base + (c << 24)) << 8));
    gate.wait();
    let mut d = Driven {
        client,
        answers: Vec::with_capacity(ops.len()),
        submitted: Vec::with_capacity(ops.len()),
        done: Vec::with_capacity(ops.len()),
        spans: Vec::new(),
    };
    let mut last_put: Option<C::Id> = None;
    for (i, op) in ops.iter().enumerate() {
        let prev = match op {
            GenOp::Get {
                after_put: true, ..
            } => last_put,
            _ => None,
        };
        let op_id = trace.map_or(0, |(t, c)| t.op_base + (c << 24) + i as u64);
        let root = spans.as_mut().map(|s| s.begin("client.op", op_id, None));
        let parent = root.as_ref().map(|r| r.id());
        let t0 = Instant::now();
        let sub = spans
            .as_mut()
            .map(|s| s.begin("client.submit", op_id, parent));
        let id = d.client.submit(kv_op(op), prev, op.is_strict());
        if let (Some(s), Some(o)) = (spans.as_mut(), sub) {
            s.end(o);
        }
        let aw = spans
            .as_mut()
            .map(|s| s.begin("client.await", op_id, parent));
        let value = d.client.await_value(id);
        let t2 = Instant::now();
        if let (Some(s), Some(o)) = (spans.as_mut(), aw) {
            s.end(o);
        }
        if let (Some(s), Some(o)) = (spans.as_mut(), root) {
            s.end(o);
        }
        if matches!(op, GenOp::Put { .. }) {
            last_put = Some(id);
        }
        d.submitted.push(t0);
        d.done.push(value.is_some().then_some(t2));
        d.answers.push((id, value));
    }
    if let Some(s) = spans {
        d.spans = s.spans;
    }
    d
}

/// Runs every client's stream concurrently, all starting together.
/// Returns the window start and each client's outcome.
fn run_clients<C: BenchClient>(
    clients: Vec<C>,
    streams: &[Vec<GenOp>],
    trace: Option<TraceCtx>,
) -> (Instant, Vec<Driven<C>>) {
    let gate = Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (client, ops))| {
                let gate = &gate;
                scope.spawn(move || drive(client, ops, gate, trace.map(|t| (t, c as u64))))
            })
            .collect();
        let start = Instant::now();
        gate.wait();
        let driven = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start, driven)
    })
}

/// Flattens the clients' outcomes into records and the window length.
fn records<C: BenchClient>(
    start: Instant,
    driven: &[Driven<C>],
    streams: &[Vec<GenOp>],
) -> (Vec<OpRecord>, f64) {
    let mut out = Vec::new();
    let mut end = start;
    for (d, ops) in driven.iter().zip(streams) {
        for (i, op) in ops.iter().enumerate() {
            if let Some(t) = d.done[i] {
                end = end.max(t);
            }
            out.push(OpRecord {
                strict: op.is_strict(),
                latency_ms: d.done[i].map(|t| (t - d.submitted[i]).as_secs_f64() * 1e3),
                submit_s: (d.submitted[i] - start).as_secs_f64(),
                done_s: d.done[i].map(|t| (t - start).as_secs_f64()),
            });
        }
    }
    (out, (end - start).as_secs_f64())
}

/// Checks that every answer has the shape its operator returns.
fn check_answer_shapes<Id>(
    streams: &[Vec<GenOp>],
    answers: &[Vec<(Id, Option<KvValue>)>],
) -> Vec<String> {
    let mut wrong = Vec::new();
    for (c, (ops, ans)) in streams.iter().zip(answers).enumerate() {
        for (i, (op, (_, v))) in ops.iter().zip(ans).enumerate() {
            let ok = match (op, v) {
                (_, None) => true,
                (GenOp::Put { .. }, Some(v)) => *v == KvValue::Ack,
                (GenOp::Get { .. }, Some(v)) => matches!(v, KvValue::Value(_)),
                (GenOp::Keys, Some(v)) => matches!(v, KvValue::Keys(_)),
            };
            if !ok {
                wrong.push(format!("client {c} op {i} ({op:?}) answered {v:?}"));
            }
        }
    }
    wrong
}

/// The correctness gate for one shard's shut-down replicas: one order
/// and one state everywhere, exactly `expected` operations in it, and
/// every strict answer equal to the value the final order gives.
fn check_shard(
    shard: u32,
    reps: &[Replica<KvStore>],
    expected: usize,
    strict: &[(OpId, KvValue)],
) -> Vec<String> {
    let mut wrong = Vec::new();
    let order = reps[0].local_order();
    if order.len() != expected {
        wrong.push(format!(
            "shard {shard}: final order holds {} ops, {expected} were submitted",
            order.len()
        ));
    }
    let state = reps[0].current_state();
    for r in &reps[1..] {
        if r.local_order() != order {
            wrong.push(format!(
                "shard {shard}: replica {:?} ordered differently",
                r.id()
            ));
        }
        if r.current_state() != state {
            wrong.push(format!(
                "shard {shard}: replica {:?} diverged in state",
                r.id()
            ));
        }
    }
    let dt = KvStore;
    let mut s = dt.initial_state();
    let mut values: HashMap<OpId, KvValue> = HashMap::with_capacity(order.len());
    for id in &order {
        let Some(d) = reps[0].rcvd().get(id) else {
            wrong.push(format!("shard {shard}: {id} ordered but not received"));
            return wrong;
        };
        let (next, v) = dt.apply(&s, &d.op);
        s = next;
        values.insert(*id, v);
    }
    if s != state {
        wrong.push(format!(
            "shard {shard}: state differs from the fold of its final order"
        ));
    }
    for (id, got) in strict {
        match values.get(id) {
            Some(v) if v == got => {}
            want => wrong.push(format!(
                "shard {shard}: strict {id} answered {got:?}, the final order gives {want:?}"
            )),
        }
    }
    wrong
}

fn sum_stats(reps: &[Replica<KvStore>]) -> (ReplicaStats, u64) {
    let mut s = ReplicaStats::default();
    let mut retained = 0u64;
    for r in reps {
        let x = r.stats();
        s.response_applies += x.response_applies;
        s.memo_applies += x.memo_applies;
        s.gossip_out_bytes += x.gossip_out_bytes;
        retained += r.retained_descriptors() as u64;
    }
    (s, retained)
}

/// Samples the TCP nodes' watermark gauges until `stop` is set.
fn sample_gauges(reg: &MetricsRegistry, stop: &AtomicBool) -> (u64, u64) {
    let (mut unstable, mut age) = (0, 0);
    while !stop.load(Ordering::Relaxed) {
        let snap = reg.snapshot();
        unstable = unstable.max(snap.gauge_max("unstable_window"));
        age = age.max(snap.gauge_max("stable_watermark_age_ms"));
        std::thread::sleep(Duration::from_millis(5));
    }
    (unstable, age)
}

/// The host's cumulative `(steal, total)` CPU time from `/proc/stat`, in
/// clock ticks; zeros where the file is unreadable.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The steal share between two [`cpu_ticks`] readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so that [`peak_rss_mb`] reads the peak of what runs after.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set since the last reset, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One sharded TCP deployment serving `streams` (one per client).
pub fn run_tcp(
    shards: u32,
    replicas: usize,
    streams: &[Vec<GenOp>],
    trace: Option<TraceCtx>,
) -> DeploymentResult {
    reset_peak_rss();
    let t_setup = Instant::now();
    let registry = if trace.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let config = ShardedWireConfig::new(replicas).with_obs(registry.clone());
    let mut svc = ShardedWireService::launch(KvStore, shards, config);
    let mut clients: Vec<_> = streams.iter().map(|_| svc.client()).collect();
    let mut wrong = Vec::new();
    // Connect: one round trip from every client to every shard's relay.
    for c in &mut clients {
        for s in 0..shards {
            if c.metrics_snapshot(s, OP_TIMEOUT).is_none() {
                wrong.push(format!("client {:?} could not reach shard {s}", c.client()));
            }
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let stop = AtomicBool::new(false);
    let ticks = cpu_ticks();
    let ((start, driven), gauges) = std::thread::scope(|scope| {
        let sampler = trace.map(|_| scope.spawn(|| sample_gauges(&registry, &stop)));
        let out = run_clients(clients, streams, trace);
        stop.store(true, Ordering::Relaxed);
        (out, sampler.map(|h| h.join().expect("sampler panicked")))
    });
    let steal = steal_share(ticks, cpu_ticks());
    let snap = registry.snapshot();
    let (records, window_s) = records(start, &driven, streams);

    // Where every operation landed: per shard, the number of operations
    // its final order must hold, and the strict answers to verify.
    let mut expected = vec![0usize; shards as usize];
    let mut strict: Vec<Vec<(OpId, KvValue)>> = vec![Vec::new(); shards as usize];
    for (d, ops) in driven.iter().zip(streams) {
        for ((id, value), op) in d.answers.iter().zip(ops) {
            if let Some((subs, _)) = d.client.gather_detail(*id) {
                for s in subs.keys() {
                    expected[*s as usize] += 1;
                }
            } else if let Some((s, desc)) = d.client.local_descriptor(*id) {
                expected[s as usize] += 1;
                if let (true, Some(v)) = (op.is_strict(), value) {
                    strict[s as usize].push((desc.id, v.clone()));
                }
            } else {
                wrong.push(format!("{id} has no placement"));
            }
        }
    }
    let answers: Vec<_> = driven.iter().map(|d| d.answers.clone()).collect();
    wrong.extend(check_answer_shapes(streams, &answers));

    // Quiet: wait until each shard's first node knows its whole history
    // stable at every replica, then stop everything.
    let deadline = Instant::now() + QUIET_TIMEOUT;
    for s in 0..shards {
        loop {
            let n = svc
                .stable_watermark(s, Duration::from_secs(1))
                .map_or(0, |w| w.len());
            if n >= expected[s as usize] {
                break;
            }
            if Instant::now() >= deadline {
                wrong.push(format!(
                    "shard {s}: {n} of {} ops stable after {QUIET_TIMEOUT:?}",
                    expected[s as usize]
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let spans: Vec<Span> = driven.into_iter().flat_map(|d| d.spans).collect();
    let final_reps = svc.shutdown();
    for (s, reps) in final_reps.iter().enumerate() {
        wrong.extend(check_shard(s as u32, reps, expected[s], &strict[s]));
    }
    let traced = trace.map(|_| {
        let (unstable, age) = gauges.unwrap_or_default();
        let (stats, retained) = sum_stats(&final_reps.concat());
        Traced {
            spans,
            counters: WindowCounters {
                tcp_gossip_msgs: snap.counter_total("gossip_msgs"),
                tcp_gossip_bytes: snap.counter_total("gossip_bytes"),
                resends: snap.counter_total("resends"),
                unstable_window_max: unstable,
                watermark_age_ms_max: age,
                ..WindowCounters::default()
            },
            stats,
            retained_descriptors: retained,
        }
    });
    DeploymentResult {
        setup_s,
        rss_peak_mb: peak_rss_mb(),
        steal_share: steal,
        window_s,
        records,
        wrong,
        traced,
    }
}

/// One threaded durable deployment serving `streams`; its stores live
/// in fresh directories under `dir`, removed afterwards.
pub fn run_runtime_wal(
    replicas: usize,
    streams: &[Vec<GenOp>],
    dir: &Path,
    trace: Option<TraceCtx>,
) -> DeploymentResult {
    reset_peak_rss();
    let t_setup = Instant::now();
    let registry = if trace.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let _ = std::fs::remove_dir_all(dir);
    let durable = (0..replicas)
        .map(|r| {
            let storage =
                FileStorage::open(dir.join(format!("r{r}"))).expect("open store directory");
            let (mut store, replica, report) = DurableStore::open(
                KvStore,
                storage,
                ReplicaId(r as u32),
                replicas,
                ReplicaConfig::default(),
                DurableConfig::default(),
            )
            .expect("open fresh durable store");
            assert!(!report.recovered, "benchmark stores start empty");
            store.attach_metrics(&registry.scoped(format!("replica{r}/wal")));
            (replica, Box::new(store) as Box<dyn Persistence<KvStore>>)
        })
        .collect();
    let mut config = RuntimeConfig::new(replicas).with_obs(registry.clone());
    config.net_delay = Duration::ZERO;
    let mut svc = RuntimeService::start_durable(config, durable);
    let clients: Vec<_> = streams.iter().map(|_| svc.client()).collect();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let ticks = cpu_ticks();
    let (start, driven) = run_clients(clients, streams, trace);
    let steal = steal_share(ticks, cpu_ticks());
    let snap = registry.snapshot();
    let (records, window_s) = records(start, &driven, streams);

    let expected: usize = streams.iter().map(Vec::len).sum();
    let mut strict = Vec::new();
    for (d, ops) in driven.iter().zip(streams) {
        for ((id, value), op) in d.answers.iter().zip(ops) {
            if let (true, Some(v)) = (op.is_strict(), value) {
                strict.push((*id, v.clone()));
            }
        }
    }
    let answers: Vec<_> = driven.iter().map(|d| d.answers.clone()).collect();
    let mut wrong = check_answer_shapes(streams, &answers);

    let deadline = Instant::now() + QUIET_TIMEOUT;
    for r in 0..replicas {
        loop {
            let snapshot = svc.snapshot(r);
            let n = snapshot.stable_everywhere.len().min(snapshot.order.len());
            if n >= expected {
                break;
            }
            if Instant::now() >= deadline {
                wrong.push(format!(
                    "replica {r}: {n} of {expected} ops stable after {QUIET_TIMEOUT:?}"
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let spans: Vec<Span> = driven.into_iter().flat_map(|d| d.spans).collect();
    let final_reps = svc.shutdown();
    wrong.extend(check_shard(0, &final_reps, expected, &strict));
    let _ = std::fs::remove_dir_all(dir);
    let traced = trace.map(|_| {
        let (stats, retained) = sum_stats(&final_reps);
        Traced {
            spans,
            counters: WindowCounters {
                rt_requests: snap.counter_total("requests"),
                rt_gossip_msgs: snap.counter_total("gossip_out"),
                resends: snap.counter_total("resends"),
                ..WindowCounters::default()
            },
            stats,
            retained_descriptors: retained,
        }
    });
    DeploymentResult {
        setup_s,
        rss_peak_mb: peak_rss_mb(),
        steal_share: steal,
        window_s,
        records,
        wrong,
        traced,
    }
}

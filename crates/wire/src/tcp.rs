//! A TCP deployment of the data service.
//!
//! The paper's experimental system (§11.1) ran replicas on a network of
//! Unix workstations with MPI carrying requests, responses, and gossip.
//! This module is the equivalent deployment for this reproduction: each
//! [`TcpReplicaNode`] hosts one [`esds_alg::Replica`] state machine behind
//! a TCP listener; peers hold long-lived gossip connections to each other;
//! clients drive an [`esds_alg::FrontEnd`] over [`TcpClient`].
//!
//! Design notes:
//!
//! * **Same state machines as the simulator.** The node threads only move
//!   framed bytes; every protocol decision lives in `esds-alg`, so the
//!   safety results validated under the simulator carry over.
//! * **Connection loss is message loss.** The algorithm tolerates lost and
//!   duplicated messages (paper §9.3), so a dropped gossip connection is
//!   simply re-dialed at the next gossip tick, and front ends re-send
//!   pending requests (footnote 3 of the paper).
//! * **Corrupt frames kill the connection**, not the node — see
//!   [`crate::frame`] on why corruption must not be absorbed.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use esds_alg::{
    FrontEnd, GossipEnvelope, Persistence, RecoveryStub, RelayPolicy, Replica, ReplicaConfig,
    RequestMsg,
};
use esds_core::{ClientId, OpId, ReplicaId, RoutingTable, SerialDataType, ShardedOpId};
use esds_obs::Stage;
use parking_lot::Mutex;

/// The cluster's address table, shared by nodes and clients. Restarting a
/// crashed node rebinds it to a fresh ephemeral port and updates its slot,
/// so peers and clients redial through the table rather than holding stale
/// addresses.
pub type AddrTable = Arc<Mutex<Vec<SocketAddr>>>;

use crate::codec::Wire;
use crate::frame::decode_frame;
use crate::message::{
    decode_message, encode_message, HelloId, ShardedResponseMsg, StabilityInfoMsg, WireMessage,
};

/// Read-poll granularity: how often blocked readers check for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Configuration of a TCP cluster.
#[derive(Clone, Debug)]
pub struct TcpClusterConfig {
    /// Number of replica nodes.
    pub n_replicas: usize,
    /// Gossip tick interval per node.
    pub gossip_interval: Duration,
    /// Replica state-machine configuration.
    pub replica: ReplicaConfig,
    /// Observability plumbing (registry, prefix, tracer). Defaults to
    /// fully disabled — zero cost unless a registry is installed.
    pub obs: NodeObs,
}

impl TcpClusterConfig {
    /// Defaults: 5 ms gossip, the default (batched) replica
    /// configuration, metrics disabled.
    pub fn new(n_replicas: usize) -> Self {
        TcpClusterConfig {
            n_replicas,
            gossip_interval: Duration::from_millis(5),
            replica: ReplicaConfig::default(),
            obs: NodeObs::default(),
        }
    }

    /// Installs a metrics registry (and optionally a tracer) for every
    /// node spawned under this config.
    #[must_use]
    pub fn with_obs(mut self, obs: NodeObs) -> Self {
        self.obs = obs;
        self
    }
}

/// The observability plumbing a node carries: the **process-wide**
/// registry it reports into (and answers [`WireMessage::MetricsQuery`]
/// frames from), the node's hierarchical metric prefix, the shard
/// index stamped on trace spans, and the sampled lifecycle tracer.
///
/// Default is everything disabled: handles are no-ops and queries
/// answer an empty snapshot.
#[derive(Clone, Debug, Default)]
pub struct NodeObs {
    /// Registry the node's counters, gauges, and histograms live in.
    pub registry: esds_obs::MetricsRegistry,
    /// Hierarchical name prefix, e.g. `shard0` (empty for unsharded
    /// deployments: metrics are named `replica{r}/…` directly).
    pub prefix: String,
    /// Shard index stamped on lifecycle trace spans.
    pub shard: u32,
    /// Sampled op-lifecycle tracer.
    pub tracer: esds_obs::OpTracer,
}

impl NodeObs {
    /// Observability for an unsharded deployment: all nodes report
    /// into `registry`, trace spans carry shard 0.
    pub fn with_registry(registry: esds_obs::MetricsRegistry) -> Self {
        NodeObs {
            registry,
            ..NodeObs::default()
        }
    }

    /// The node-level scope (`[prefix/]replica{r}`) for replica `id`.
    pub fn replica_scope(&self, id: ReplicaId) -> esds_obs::Scope {
        if self.prefix.is_empty() {
            self.registry.scoped(format!("replica{}", id.0))
        } else {
            self.registry
                .scoped(format!("{}/replica{}", self.prefix, id.0))
        }
    }
}

enum NodeInput<T: SerialDataType> {
    Request(RequestMsg<T::Operator>),
    Gossip(GossipEnvelope<T::Operator>),
    Inspect(Sender<StabilitySnapshot>),
    Shutdown,
}

/// A replica's stability knowledge at one instant: its local label
/// order and the set it knows to be stable at every replica. The
/// allocation-light probe an audit watermark poll needs — operator
/// payloads and label maps stay on the node.
#[derive(Clone, Debug)]
pub struct StabilitySnapshot {
    /// The node's local label order (ids only).
    pub order: Vec<OpId>,
    /// `∩ᵢ stable_r[i]` — operations the node knows are stable
    /// everywhere; within [`StabilitySnapshot::order`] these form its
    /// solid prefix.
    pub stable_everywhere: std::collections::BTreeSet<OpId>,
}

/// What makes a replica node **shard-aware**: the deployment's shared
/// routing table (the authority for the version handshake) and the
/// shard's `local id → global id` map, filled in as `ShardedRequest`
/// frames are accepted and consulted when responses go out (a mapped
/// operation is answered with a `ShardedResponse::Ok` carrying its
/// global identity; unmapped ones keep the plain `Response` encoding).
#[derive(Clone)]
pub(crate) struct ShardCtx {
    pub(crate) table: Arc<Mutex<RoutingTable>>,
    pub(crate) globals: Arc<Mutex<HashMap<OpId, ShardedOpId>>>,
}

/// One replica server: a listener, reader threads, and the core thread
/// driving the replica state machine and the gossip timer.
pub struct TcpReplicaNode<T: SerialDataType> {
    id: ReplicaId,
    addr: SocketAddr,
    input_tx: Sender<NodeInput<T>>,
    core: Option<JoinHandle<Replica<T>>>,
    acceptor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl<T> TcpReplicaNode<T>
where
    T: SerialDataType + Send + 'static,
    T::Operator: Wire + Send,
    T::Value: Wire + Send,
    T::State: Send,
{
    /// Spawns a node for replica `id` of `n`, listening on `listener`,
    /// gossiping to the peers in `addrs` (index = replica id; own entry
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read or threads
    /// cannot be spawned.
    pub fn spawn(
        dt: T,
        id: ReplicaId,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
    ) -> Self {
        let rep = Replica::new(dt, id, config.n_replicas, config.replica);
        Self::spawn_node(rep, listener, addrs, config, None, None)
    }

    /// Spawns a **durable** node over a pre-built replica and its
    /// persistence backend — the restart-from-disk entry point: open the
    /// replica's store (recovering whatever survives on disk), then hand
    /// the recovered replica here. Every mutating input is persisted
    /// (synced) before its response or gossip leaves the node; a persist
    /// failure stops the core thread, exactly as if the machine had lost
    /// power.
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read or threads
    /// cannot be spawned.
    pub fn spawn_durable(
        rep: Replica<T>,
        store: Box<dyn Persistence<T>>,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
    ) -> Self {
        Self::spawn_node(rep, listener, addrs, config, None, Some(store))
    }

    /// Like [`TcpReplicaNode::spawn`], but shard-aware: `ShardedRequest`
    /// frames are version-checked against the deployment's shared routing
    /// table (stale versions are NAKed with the authoritative table) and
    /// accepted operations answer as `ShardedResponse` frames carrying
    /// their global identity.
    pub(crate) fn spawn_sharded(
        dt: T,
        id: ReplicaId,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
        shard: ShardCtx,
    ) -> Self {
        let rep = Replica::new(dt, id, config.n_replicas, config.replica);
        Self::spawn_node(rep, listener, addrs, config, Some(shard), None)
    }

    /// Spawns a node recovering from a crash (paper §9.3): the replica
    /// rebuilds its state from gossip, serving nothing until it has heard
    /// from every peer. Only `stub` (the stable-storage label floor and
    /// local minimum labels) survives from before the crash.
    ///
    /// # Panics
    ///
    /// Panics if threads cannot be spawned.
    pub fn spawn_recovered(
        dt: T,
        stub: RecoveryStub,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
    ) -> Self {
        let rep = Replica::recover(dt, stub, config.n_replicas, config.replica);
        Self::spawn_node(rep, listener, addrs, config, None, None)
    }

    fn spawn_node(
        rep: Replica<T>,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
        shard: Option<ShardCtx>,
        store: Option<Box<dyn Persistence<T>>>,
    ) -> Self {
        let id = rep.id();
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let (input_tx, input_rx) = unbounded::<NodeInput<T>>();
        let clients: Arc<Mutex<HashMap<ClientId, TcpStream>>> =
            Arc::new(Mutex::new(HashMap::new()));

        let acceptor = spawn_acceptor::<T>(
            id,
            listener,
            input_tx.clone(),
            clients.clone(),
            stop.clone(),
            shard.clone(),
            config.obs.registry.clone(),
        );
        let core = spawn_core::<T>(
            rep,
            config.clone(),
            addrs,
            input_rx,
            clients,
            stop.clone(),
            shard,
            store,
        );

        TcpReplicaNode {
            id,
            addr,
            input_tx,
            core: Some(core),
            acceptor: Some(acceptor),
            stop,
        }
    }

    /// The node's replica identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Fetches the node's [`StabilitySnapshot`] through its input
    /// channel (consistent: taken between state-machine steps).
    /// `None` if the node is shutting down or wedged past `timeout`.
    pub fn stability(&self, timeout: Duration) -> Option<StabilitySnapshot> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.input_tx.send(NodeInput::Inspect(tx)).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// The address clients and peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the node's threads and returns the final replica state
    /// machine.
    pub fn shutdown(mut self) -> Replica<T> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.input_tx.send(NodeInput::Shutdown);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.core
            .take()
            .expect("core joined once")
            .join()
            .expect("replica core panicked")
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_acceptor<T>(
    id: ReplicaId,
    listener: TcpListener,
    input_tx: Sender<NodeInput<T>>,
    clients: Arc<Mutex<HashMap<ClientId, TcpStream>>>,
    stop: Arc<AtomicBool>,
    shard: Option<ShardCtx>,
    registry: esds_obs::MetricsRegistry,
) -> JoinHandle<()>
where
    T: SerialDataType + Send + 'static,
    T::Operator: Wire + Send,
    T::Value: Wire + Send,
{
    std::thread::Builder::new()
        .name(format!("esds-tcp-accept-{}", id.0))
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let (stream, _) = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let tx = input_tx.clone();
                let clients = clients.clone();
                let stop = stop.clone();
                let shard = shard.clone();
                let registry = registry.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("esds-tcp-read-{}", id.0))
                    .spawn(move || {
                        read_connection::<T>(stream, tx, clients, stop, shard, registry)
                    });
            }
        })
        .expect("spawn acceptor")
}

/// Reads frames from one inbound connection until EOF, error, or shutdown.
/// The first frame must be a `Hello`; client connections are registered so
/// the core thread can write responses back.
fn read_connection<T>(
    stream: TcpStream,
    input_tx: Sender<NodeInput<T>>,
    clients: Arc<Mutex<HashMap<ClientId, TcpStream>>>,
    stop: Arc<AtomicBool>,
    shard: Option<ShardCtx>,
    registry: esds_obs::MetricsRegistry,
) where
    T: SerialDataType,
    T::Operator: Wire,
    T::Value: Wire,
{
    set_up(&stream);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = stream.try_clone().expect("clone stream");
    let mut buf = BytesMut::with_capacity(8 * 1024);
    let mut chunk = [0u8; 4096];
    let mut registered: Option<ClientId> = None;
    'conn: loop {
        // Drain complete frames already buffered.
        loop {
            match decode_frame(&mut buf) {
                Ok(Some(frame)) => {
                    let msg: WireMessage<T::Operator, T::Value> = match decode_message(&frame) {
                        Ok(m) => m,
                        Err(_) => break 'conn, // malformed payload: drop connection
                    };
                    match msg {
                        WireMessage::Hello(HelloId::Client(c)) => {
                            if let Ok(w) = stream.try_clone() {
                                clients.lock().insert(c, w);
                                registered = Some(c);
                            }
                        }
                        WireMessage::Hello(HelloId::Replica(_)) => {}
                        WireMessage::Request(m) => {
                            if input_tx.send(NodeInput::Request(m)).is_err() {
                                break 'conn;
                            }
                        }
                        WireMessage::ShardedRequest(m) => {
                            // A non-sharded node cannot version-check; the
                            // frame is a protocol error, drop the conn.
                            let Some(ctx) = &shard else { break 'conn };
                            let stale = {
                                let table = ctx.table.lock();
                                (table.version() != m.version).then(|| table.clone())
                            };
                            match stale {
                                None => {
                                    // Version handshake passed: the client
                                    // routed under the table this shard
                                    // serves, so the key belongs here.
                                    ctx.globals.lock().insert(m.desc.id, m.global);
                                    if input_tx
                                        .send(NodeInput::Request(RequestMsg { desc: m.desc }))
                                        .is_err()
                                    {
                                        break 'conn;
                                    }
                                }
                                Some(table) => {
                                    // NAK before the replica ever sees the
                                    // descriptor. Written through the
                                    // registered-clients lock so the frame
                                    // cannot interleave with a response the
                                    // core thread is writing to the same
                                    // stream. An unregistered sender (no
                                    // Hello yet) just gets nothing — its
                                    // retry loop will resend.
                                    let mut out = BytesMut::new();
                                    let nak: WireMessage<T::Operator, T::Value> =
                                        WireMessage::ShardedResponse(ShardedResponseMsg::Nak {
                                            global: m.global,
                                            table,
                                        });
                                    encode_message(&nak, &mut out);
                                    if let Some(c) = registered {
                                        let mut guard = clients.lock();
                                        if let Some(w) = guard.get_mut(&c) {
                                            let _ = w.write_all(&out);
                                        }
                                    }
                                }
                            }
                        }
                        WireMessage::Gossip(g) => {
                            if input_tx
                                .send(NodeInput::Gossip(GossipEnvelope::Snapshot(g)))
                                .is_err()
                            {
                                break 'conn;
                            }
                        }
                        WireMessage::GossipBatched(b) => {
                            if input_tx
                                .send(NodeInput::Gossip(GossipEnvelope::Batched(b)))
                                .is_err()
                            {
                                break 'conn;
                            }
                        }
                        WireMessage::StabilityQuery => {
                            // Answered from the reader thread: the snapshot
                            // is fetched over the core's input channel (so
                            // it is consistent) and written back through
                            // the registered-clients lock (so the frame
                            // cannot interleave with a response the core
                            // thread is writing). A dropped or timed-out
                            // probe is simply not answered — the client's
                            // barrier loop re-queries.
                            let (tx, rx) = crossbeam::channel::bounded(1);
                            if input_tx.send(NodeInput::Inspect(tx)).is_err() {
                                break 'conn;
                            }
                            if let Ok(snap) = rx.recv_timeout(Duration::from_secs(5)) {
                                let mut out = BytesMut::new();
                                let info: WireMessage<T::Operator, T::Value> =
                                    WireMessage::StabilityInfo(StabilityInfoMsg {
                                        order: snap.order,
                                        stable_everywhere: snap
                                            .stable_everywhere
                                            .into_iter()
                                            .collect(),
                                    });
                                encode_message(&info, &mut out);
                                if let Some(c) = registered {
                                    let mut guard = clients.lock();
                                    if let Some(w) = guard.get_mut(&c) {
                                        let _ = w.write_all(&out);
                                    }
                                }
                            }
                        }
                        WireMessage::MetricsQuery => {
                            // Answered straight from the reader thread:
                            // the registry is lock-free to read and
                            // process-global, so no core round-trip is
                            // needed. Written through the registered-
                            // clients lock like every other reply. A
                            // node running with metrics disabled answers
                            // an empty snapshot rather than erroring, so
                            // pollers need not know the server's config.
                            let mut out = BytesMut::new();
                            let info: WireMessage<T::Operator, T::Value> =
                                WireMessage::MetricsInfo(registry.snapshot());
                            encode_message(&info, &mut out);
                            if let Some(c) = registered {
                                let mut guard = clients.lock();
                                if let Some(w) = guard.get_mut(&c) {
                                    let _ = w.write_all(&out);
                                }
                            }
                        }
                        WireMessage::Response(_)
                        | WireMessage::ShardedResponse(_)
                        | WireMessage::StabilityInfo(_)
                        | WireMessage::MetricsInfo(_) => {} // nonsensical inbound; ignore
                    }
                }
                Ok(None) => break,
                Err(_) => break 'conn, // corrupt frame: drop connection
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    if let Some(c) = registered {
        clients.lock().remove(&c);
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_core<T>(
    mut rep: Replica<T>,
    config: TcpClusterConfig,
    addrs: AddrTable,
    input_rx: Receiver<NodeInput<T>>,
    clients: Arc<Mutex<HashMap<ClientId, TcpStream>>>,
    stop: Arc<AtomicBool>,
    shard: Option<ShardCtx>,
    mut store: Option<Box<dyn Persistence<T>>>,
) -> JoinHandle<Replica<T>>
where
    T: SerialDataType + Send + 'static,
    T::Operator: Wire + Send,
    T::Value: Wire + Send,
    T::State: Send,
{
    let id = rep.id();
    let n = rep.n();
    // Metric handles resolve to no-ops when the registry is disabled;
    // the per-tick gauge math below is additionally gated on
    // `obs_enabled` so the disabled path costs one predictable branch.
    let scope = config.obs.replica_scope(id);
    let obs_enabled = scope.is_enabled();
    let m_requests = scope.counter("requests");
    let m_gossip_in = scope.counter("gossip_in");
    let m_responses = scope.counter("responses");
    let m_unstable = scope.gauge("unstable_window");
    let m_wm_age = scope.gauge("stable_watermark_age_ms");
    let m_peers: Vec<(esds_obs::Counter, esds_obs::Counter)> = (0..n)
        .map(|p| {
            (
                scope.counter(&format!("peer{p}/gossip_msgs")),
                scope.counter(&format!("peer{p}/gossip_bytes")),
            )
        })
        .collect();
    let tracer = config.obs.tracer.clone();
    let trace_shard = config.obs.shard;
    std::thread::Builder::new()
        .name(format!("esds-tcp-core-{}", id.0))
        .spawn(move || {
            let mut peers: Vec<Option<(SocketAddr, TcpStream)>> = (0..n).map(|_| None).collect();
            let mut next_gossip = Instant::now() + config.gossip_interval;
            let mut out = BytesMut::new();
            // Sampled in-flight ops awaiting a `stabilize` span, and the
            // watermark-advance clock behind `stable_watermark_age_ms`.
            let mut pending_stab: Vec<(OpId, String)> = Vec::new();
            let mut last_stable_n = 0usize;
            let mut last_advance = Instant::now();
            'run: loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let now = Instant::now();
                if now >= next_gossip {
                    for (p, peer) in peers.iter_mut().enumerate() {
                        let pid = ReplicaId(p as u32);
                        if pid == id {
                            continue;
                        }
                        // poll_gossip paces batched strategies: a tick
                        // that is still accumulating sends nothing.
                        let Some(env) = rep.poll_gossip(pid) else {
                            continue;
                        };
                        // Sync-before-release: a failing disk silences
                        // the node before the envelope leaves it.
                        if let Some(st) = store.as_mut() {
                            if st.persist(&mut rep).is_err() {
                                break 'run;
                            }
                        }
                        out.clear();
                        match env {
                            GossipEnvelope::Batched(b) => {
                                let msg: WireMessage<T::Operator, T::Value> =
                                    WireMessage::GossipBatched(b);
                                encode_message(&msg, &mut out);
                            }
                            GossipEnvelope::Snapshot(g) => {
                                let msg: WireMessage<T::Operator, T::Value> =
                                    WireMessage::Gossip(g);
                                encode_message(&msg, &mut out);
                            }
                        }
                        let peer_addr = addrs.lock()[p];
                        // A failed send needs no repair: the next batch
                        // re-ships whatever the peer has not acknowledged.
                        if send_to_peer(peer, peer_addr, id, &out) {
                            m_peers[p].0.inc();
                            m_peers[p].1.add(out.len() as u64);
                        }
                    }
                    if obs_enabled || !pending_stab.is_empty() {
                        let stable_n = rep.stable_everywhere().len();
                        if stable_n > last_stable_n {
                            last_stable_n = stable_n;
                            last_advance = now;
                        }
                        if obs_enabled {
                            m_wm_age.set(last_advance.elapsed().as_millis() as u64);
                            m_unstable.set(rep.rcvd().len().saturating_sub(stable_n) as u64);
                        }
                        if !pending_stab.is_empty() {
                            let se = rep.stable_everywhere();
                            pending_stab.retain(|(opid, s)| {
                                if se.contains(opid) {
                                    tracer.emit(trace_shard, s, Stage::Stabilize);
                                    false
                                } else {
                                    true
                                }
                            });
                        }
                    }
                    next_gossip = now + config.gossip_interval;
                }
                let wait = next_gossip.saturating_duration_since(Instant::now());
                let input = match input_rx.recv_timeout(wait.max(Duration::from_micros(200))) {
                    Ok(i) => i,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                let effects = match input {
                    NodeInput::Request(m) => {
                        m_requests.inc();
                        if tracer.is_enabled() {
                            let ids = m.desc.id.to_string();
                            if tracer.sampled(&ids) {
                                tracer.emit(trace_shard, &ids, Stage::ReplicaAccept);
                                pending_stab.push((m.desc.id, ids));
                            }
                        }
                        rep.on_request(m.desc)
                    }
                    NodeInput::Gossip(g) => {
                        m_gossip_in.inc();
                        rep.on_gossip_envelope(g)
                    }
                    NodeInput::Inspect(tx) => {
                        let _ = tx.send(StabilitySnapshot {
                            order: rep.local_order(),
                            stable_everywhere: rep.stable_everywhere().clone(),
                        });
                        Vec::new()
                    }
                    NodeInput::Shutdown => break,
                };
                // Persist (append + sync) the handler's changes before
                // any response frame is written — a crash after this
                // point re-delivers the answered value from disk; a
                // persist failure is the node's death, effects dropped.
                if let Some(st) = store.as_mut() {
                    if st.persist(&mut rep).is_err() {
                        break 'run;
                    }
                }
                for e in effects {
                    m_responses.inc();
                    if tracer.is_enabled() {
                        // The op carries its minlabel by the time the
                        // replica answers (Thm 5.7's labelling step).
                        tracer.emit(trace_shard, &e.msg.id.to_string(), Stage::Label);
                    }
                    out.clear();
                    // Operations accepted through the sharded handshake
                    // answer with their global identity attached. The
                    // mapping is consumed here so the shared map stays
                    // bounded by in-flight operations, not total history;
                    // a client retry of an already-answered request
                    // re-inserts it before the replica re-answers.
                    let global = shard
                        .as_ref()
                        .and_then(|ctx| ctx.globals.lock().remove(&e.msg.id));
                    let msg: WireMessage<T::Operator, T::Value> = match global {
                        Some(global) => WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                            global,
                            resp: e.msg,
                        }),
                        None => WireMessage::Response(e.msg),
                    };
                    encode_message(&msg, &mut out);
                    let mut guard = clients.lock();
                    if let Some(w) = guard.get_mut(&e.client) {
                        if w.write_all(&out).is_err() {
                            guard.remove(&e.client);
                        }
                    }
                }
            }
            rep
        })
        .expect("spawn core")
}

/// Socket set-up shared by every accept and dial site: `TCP_NODELAY`, so
/// a small frame (a response, a gossip batch) leaves at once instead of
/// waiting under Nagle's algorithm for the peer's delayed ACK (about
/// 40 ms on Linux).
pub(crate) fn set_up(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

/// Dials `addr` within `timeout` and sets the stream up (see [`set_up`]).
pub(crate) fn dial(addr: &SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, timeout)?;
    set_up(&stream);
    Ok(stream)
}

/// Ensures a live outbound connection to a peer and writes `frame_bytes`.
/// Returns false if the peer was unreachable or the write failed (the
/// connection slot is cleared for a retry at the next tick). A slot dialed
/// to a stale address (the peer restarted elsewhere) is re-dialed.
fn send_to_peer(
    slot: &mut Option<(SocketAddr, TcpStream)>,
    addr: SocketAddr,
    me: ReplicaId,
    frame_bytes: &[u8],
) -> bool {
    if slot.as_ref().is_some_and(|(dialed, _)| *dialed != addr) {
        *slot = None;
    }
    if slot.is_none() {
        match dial(&addr, Duration::from_millis(200)) {
            Ok(mut s) => {
                let mut hello = BytesMut::new();
                encode_message::<NoOp, NoOp>(&WireMessage::Hello(HelloId::Replica(me)), &mut hello);
                if s.write_all(&hello).is_err() {
                    return false;
                }
                *slot = Some((addr, s));
            }
            Err(_) => return false,
        }
    }
    if let Some((_, s)) = slot {
        if s.write_all(frame_bytes).is_ok() {
            return true;
        }
    }
    *slot = None;
    false
}

/// Placeholder operator/value type for frames that carry neither (Hello).
enum NoOp {}
impl Wire for NoOp {
    fn encode(&self, _buf: &mut impl bytes::BufMut) {
        match *self {}
    }
    fn decode(_buf: &mut impl bytes::Buf) -> Result<Self, crate::WireError> {
        Err(crate::WireError::InvalidTag {
            context: "NoOp",
            tag: 0,
        })
    }
}

/// A client front end speaking the wire protocol over TCP.
pub struct TcpClient<T: SerialDataType> {
    fe: FrontEnd<T::Operator, T::Value>,
    conns: Vec<Option<(SocketAddr, TcpStream)>>,
    addrs: AddrTable,
    buf: BytesMut,
    m_submitted: esds_obs::Counter,
    m_answered: esds_obs::Counter,
    m_resends: esds_obs::Counter,
}

impl<T> TcpClient<T>
where
    T: SerialDataType,
    T::Operator: Wire + Clone,
    T::Value: Wire + Clone,
{
    /// Connects a client with identity `client` to a cluster whose replica
    /// addresses are `addrs` (index = replica id). The connection to the
    /// relay replica is opened lazily on first use.
    ///
    /// Clients of one service must use distinct [`ClientId`]s — operation
    /// identifiers embed them (paper §6.2, Invariant 4.1).
    pub fn connect(client: ClientId, addrs: Vec<SocketAddr>) -> Self {
        Self::connect_shared(client, Arc::new(Mutex::new(addrs)))
    }

    /// Like [`TcpClient::connect`], but sharing a live [`AddrTable`] (so
    /// node restarts at new addresses are picked up on the next dial).
    pub fn connect_shared(client: ClientId, addrs: AddrTable) -> Self {
        let n = addrs.lock().len();
        TcpClient {
            fe: FrontEnd::new(
                client,
                n,
                RelayPolicy::Fixed(ReplicaId(client.0 % n as u32)),
            ),
            conns: (0..n).map(|_| None).collect(),
            addrs,
            buf: BytesMut::with_capacity(4 * 1024),
            m_submitted: esds_obs::Counter::noop(),
            m_answered: esds_obs::Counter::noop(),
            m_resends: esds_obs::Counter::noop(),
        }
    }

    /// Registers client-side counters (`ops_submitted`, `ops_answered`,
    /// `resends`) under `scope`. Until called, the handles are no-ops.
    pub fn attach_metrics(&mut self, scope: &esds_obs::Scope) {
        self.m_submitted = scope.counter("ops_submitted");
        self.m_answered = scope.counter("ops_answered");
        self.m_resends = scope.counter("resends");
    }

    /// The client identity.
    pub fn client(&self) -> ClientId {
        self.fe.client()
    }

    /// Submits an operation; returns its id immediately.
    pub fn submit(&mut self, op: T::Operator, prev: &[OpId], strict: bool) -> OpId {
        self.m_submitted.inc();
        let (id, sends) = self.fe.submit(op, prev.iter().copied(), strict);
        for (r, msg) in sends {
            self.send_request(r, &msg);
        }
        id
    }

    /// The value previously returned for `id`, if completed.
    pub fn value_of(&self, id: OpId) -> Option<&T::Value> {
        self.fe.value_of(id)
    }

    /// Waits until `id` is answered or `timeout` elapses, re-sending
    /// pending requests every 50 ms (paper footnote 3).
    pub fn await_response(&mut self, id: OpId, timeout: Duration) -> Option<T::Value> {
        let deadline = Instant::now() + timeout;
        let mut next_retry = Instant::now() + Duration::from_millis(50);
        loop {
            if let Some(v) = self.fe.value_of(id) {
                self.m_answered.inc();
                return Some(v.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if now >= next_retry {
                for (r, msg) in self.fe.resend_pending() {
                    self.m_resends.inc();
                    self.send_request(r, &msg);
                }
                next_retry = now + Duration::from_millis(50);
            }
            self.pump_responses();
        }
    }

    /// Polls replica `r` for its process's metrics snapshot, waiting up
    /// to `timeout`. `None` on connection failure or timeout. Any frames
    /// that arrive ahead of the answer (responses to in-flight ops) are
    /// fed to the front end as usual.
    pub fn metrics(
        &mut self,
        r: ReplicaId,
        timeout: Duration,
    ) -> Option<esds_obs::MetricsSnapshot> {
        let idx = r.0 as usize;
        let mut out = BytesMut::new();
        let q: WireMessage<T::Operator, T::Value> = WireMessage::MetricsQuery;
        encode_message(&q, &mut out);
        self.ensure_conn(idx);
        let (_, s) = self.conns[idx].as_mut()?;
        s.write_all(&out).ok()?;
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 4096];
        while Instant::now() < deadline {
            let Some((_, s)) = &mut self.conns[idx] else {
                return None;
            };
            match s.read(&mut chunk) {
                Ok(0) => {
                    self.conns[idx] = None;
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    self.conns[idx] = None;
                    return None;
                }
            }
            loop {
                match decode_frame(&mut self.buf) {
                    Ok(Some(frame)) => match decode_message::<T::Operator, T::Value>(&frame) {
                        Ok(WireMessage::MetricsInfo(snap)) => return Some(snap),
                        Ok(WireMessage::Response(m)) => {
                            let _ = self.fe.on_response(m);
                        }
                        _ => {}
                    },
                    Ok(None) => break,
                    Err(_) => {
                        self.buf.clear();
                        return None;
                    }
                }
            }
        }
        None
    }

    /// Dials replica `idx` (with the client Hello) if the slot is empty
    /// or was dialed to a stale address.
    fn ensure_conn(&mut self, idx: usize) {
        let addr = self.addrs.lock()[idx];
        if self.conns[idx]
            .as_ref()
            .is_some_and(|(dialed, _)| *dialed != addr)
        {
            self.conns[idx] = None;
        }
        if self.conns[idx].is_none() {
            if let Ok(mut s) = dial(&addr, Duration::from_millis(500)) {
                let _ = s.set_read_timeout(Some(POLL));
                let mut hello = BytesMut::new();
                let h: WireMessage<T::Operator, T::Value> =
                    WireMessage::Hello(HelloId::Client(self.fe.client()));
                encode_message(&h, &mut hello);
                if s.write_all(&hello).is_ok() {
                    self.conns[idx] = Some((addr, s));
                }
            }
        }
    }

    fn send_request(&mut self, r: ReplicaId, msg: &RequestMsg<T::Operator>) {
        let mut out = BytesMut::new();
        let wire: WireMessage<T::Operator, T::Value> = WireMessage::Request(msg.clone());
        encode_message(&wire, &mut out);
        let idx = r.0 as usize;
        self.ensure_conn(idx);
        if let Some((_, s)) = &mut self.conns[idx] {
            if s.write_all(&out).is_err() {
                self.conns[idx] = None;
            }
        }
    }

    /// Reads whatever responses are available (bounded by the poll
    /// timeout) and feeds them to the front end.
    fn pump_responses(&mut self) {
        let mut chunk = [0u8; 4096];
        for slot in &mut self.conns {
            let Some((_, s)) = slot else { continue };
            match s.read(&mut chunk) {
                Ok(0) => {
                    *slot = None;
                    continue;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    *slot = None;
                    continue;
                }
            }
        }
        loop {
            match decode_frame(&mut self.buf) {
                Ok(Some(frame)) => {
                    if let Ok(WireMessage::<T::Operator, T::Value>::Response(m)) =
                        decode_message(&frame)
                    {
                        self.fe.on_response(m);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.buf.clear();
                    break;
                }
            }
        }
    }
}

/// A localhost cluster: `n` replica nodes plus a client factory.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use esds_datatypes::{Counter, CounterOp, CounterValue};
/// use esds_wire::{TcpCluster, TcpClusterConfig};
///
/// let mut cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(3));
/// let mut client = cluster.client();
/// let id = client.submit(CounterOp::Increment(1), &[], false);
/// assert_eq!(
///     client.await_response(id, Duration::from_secs(5)),
///     Some(CounterValue::Ack)
/// );
/// cluster.shutdown();
/// ```
pub struct TcpCluster<T: SerialDataType> {
    dt: T,
    config: TcpClusterConfig,
    nodes: Vec<Option<TcpReplicaNode<T>>>,
    addrs: AddrTable,
    next_client: u32,
}

impl<T> TcpCluster<T>
where
    T: SerialDataType + Clone + Send + 'static,
    T::Operator: Wire + Send + Clone,
    T::Value: Wire + Send + Clone,
    T::State: Send,
{
    /// Binds `n` listeners on ephemeral localhost ports and spawns the
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero or localhost listeners cannot be
    /// bound.
    pub fn launch(dt: T, config: TcpClusterConfig) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        let listeners: Vec<TcpListener> = (0..config.n_replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost"))
            .collect();
        let addrs: AddrTable = Arc::new(Mutex::new(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("addr"))
                .collect(),
        ));
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                Some(TcpReplicaNode::spawn(
                    dt.clone(),
                    ReplicaId(i as u32),
                    l,
                    addrs.clone(),
                    &config,
                ))
            })
            .collect();
        TcpCluster {
            dt,
            config,
            nodes,
            addrs,
            next_client: 0,
        }
    }

    /// A snapshot of the listen addresses, indexed by replica id.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.lock().clone()
    }

    /// Creates a new client with the next unused identity. Clients share
    /// the cluster's live address table, so they follow node restarts.
    pub fn client(&mut self) -> TcpClient<T> {
        let c = ClientId(self.next_client);
        self.next_client += 1;
        TcpClient::connect_shared(c, self.addrs.clone())
    }

    /// Crashes node `r`: its threads stop and all volatile state is lost.
    /// Returns the stable-storage stub (paper §9.3: the label-counter
    /// floor and locally-generated minimum labels) for a later
    /// [`TcpCluster::restart`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or already crashed.
    pub fn crash(&mut self, r: ReplicaId) -> RecoveryStub {
        let node = self.nodes[r.0 as usize].take().expect("node is running");
        node.shutdown().crash()
    }

    /// Restarts a crashed node from its stable-storage stub on a fresh
    /// ephemeral port, updating the shared address table. The node rejoins
    /// by gossip: it serves nothing until it has heard from every peer
    /// (paper §9.3), after which Theorem 9.4's bounds apply again.
    ///
    /// # Panics
    ///
    /// Panics if the node is still running or the listener cannot bind.
    pub fn restart(&mut self, stub: RecoveryStub) {
        let idx = stub.id.0 as usize;
        assert!(self.nodes[idx].is_none(), "node {idx} is still running");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        self.addrs.lock()[idx] = listener.local_addr().expect("addr");
        self.nodes[idx] = Some(TcpReplicaNode::spawn_recovered(
            self.dt.clone(),
            stub,
            listener,
            self.addrs.clone(),
            &self.config,
        ));
    }

    /// Stops every running node, returning the final replica state
    /// machines (crashed slots are skipped).
    pub fn shutdown(self) -> Vec<Replica<T>> {
        self.nodes
            .into_iter()
            .flatten()
            .map(TcpReplicaNode::shutdown)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    #[test]
    fn cluster_roundtrip_plain_gossip() {
        let mut config = TcpClusterConfig::new(3);
        config.replica = ReplicaConfig::default().with_gossip(esds_alg::GossipStrategy::Full);
        exercise(config);
    }

    #[test]
    fn accepted_and_dialed_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = dial(&listener.local_addr().unwrap(), Duration::from_secs(1)).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        set_up(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert!(dialed.nodelay().unwrap());
    }

    #[test]
    fn cluster_roundtrip_batched_gossip() {
        // The §10.4 batched wire contract over real sockets: every second
        // gossip tick one GossipBatched frame per peer, strict ops still
        // stabilize through the summary-borne votes.
        let mut config = TcpClusterConfig::new(3);
        config.replica = ReplicaConfig::default().with_batched(2);
        exercise(config);
    }

    fn exercise(config: TcpClusterConfig) {
        let mut cluster = TcpCluster::launch(Counter, config);
        let mut c0 = cluster.client();
        let mut c1 = cluster.client();

        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(c0.submit(CounterOp::Increment(1), &[], false));
            ids.push(c1.submit(CounterOp::Increment(10), &[], false));
        }
        for id in &ids {
            let owner = if id.client() == c0.client() {
                &mut c0
            } else {
                &mut c1
            };
            assert_eq!(
                owner.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        // Strict audit pinned after everything sees 4·1 + 4·10 = 44.
        let audit = c0.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c0.await_response(audit, Duration::from_secs(30)),
            Some(CounterValue::Count(44)),
        );

        let reps = cluster.shutdown();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 44), "diverged: {states:?}");
    }

    #[test]
    fn crash_and_recovery_over_sockets() {
        // §9.3 on the real deployment: crash a replica (volatile state
        // lost, stable-storage stub kept), keep working against the
        // survivors, restart it on a fresh port, and verify a strict
        // operation — which needs stability at *every* replica — completes
        // and all replicas converge.
        let mut cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(3));
        let mut c = cluster.client(); // relay = replica 0

        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        let stub = cluster.crash(ReplicaId(2));

        // Nonstrict work keeps flowing through the survivors.
        for _ in 0..5 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        for id in ids.iter().skip(5) {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        cluster.restart(stub);

        // The strict audit requires replica 2 to be back, caught up, and
        // voting stable; Theorem 9.4: liveness resumes after recovery.
        let audit = c.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c.await_response(audit, Duration::from_secs(60)),
            Some(CounterValue::Count(10)),
        );

        let reps = cluster.shutdown();
        assert_eq!(reps.len(), 3);
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 10), "diverged: {states:?}");
    }

    #[test]
    fn client_times_out_against_dead_address() {
        // No listener: submit fails to connect, await returns None quickly.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client: TcpClient<Counter> = TcpClient::connect(ClientId(0), vec![addr]);
        let id = client.submit(CounterOp::Read, &[], false);
        assert_eq!(client.await_response(id, Duration::from_millis(300)), None);
    }
}

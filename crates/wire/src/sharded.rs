//! The **sharded TCP deployment**: `S` independent replica clusters on
//! real sockets behind shard-aware clients.
//!
//! This is the wire-layer analogue of `esds-runtime`'s `ShardedService`
//! (threads) and `esds-harness`'s `ShardedSimSystem` (virtual time): the
//! keyspace of a [`KeyedDataType`] is partitioned through the shared,
//! versioned [`RoutingTable`] (`key → slot → shard`), and each shard is a
//! complete, unmodified ESDS cluster — its own replicas, its own gossip
//! domain, its own labels and stabilization — here made of
//! [`TcpReplicaNode`]s speaking the framed protocol of this crate.
//!
//! ## The routing-table-version handshake
//!
//! Requests travel as [`FrameKind::ShardedRequest`](crate::FrameKind)
//! frames carrying the client's global [`ShardedOpId`], the per-shard
//! descriptor, **and the table version the client routed under**. A node
//! checks the version against the deployment's shared table *before* the
//! descriptor can reach its replica:
//!
//! * match → the operation is accepted; its eventual answer is a
//!   [`ShardedResponseMsg::Ok`] frame carrying the global id back;
//! * mismatch → the node refuses the descriptor and answers a
//!   [`ShardedResponseMsg::Nak`] carrying the authoritative table. The
//!   client adopts the newer table and **re-routes** the operation —
//!   minting a fresh per-shard identifier on the correct shard — so a
//!   stale view can never read or write the wrong shard's slice.
//!
//! Routing is deterministic from the table, so a version match certifies
//! the shard choice itself; no per-key check is needed.
//!
//! ## Cross-shard `prev` over the wire
//!
//! Exactly the submit-time wait of `runtime::sharded`: different shards
//! hold disjoint slices of the object state, so operations on different
//! shards commute and are mutually oblivious — once a foreign-shard
//! predecessor has been *responded to*, the remaining constraint is
//! vacuous for the state and satisfied for the client-observed order.
//! [`ShardedWireClient::submit`] therefore walks the `prev` DAG with
//! [`esds_core::shard_frontier`]: same-shard predecessors (including
//! those inherited *through* foreign hops) become the local `prev` set,
//! and every foreign predecessor encountered is awaited **over the wire**
//! before the dependent request frame is sent to its shard.
//!
//! ## Whole-object queries: scatter-gather
//!
//! A keyless, mergeable operator (`shard_key` `None`,
//! [`KeyedDataType::merge_gathered`] `Some` — e.g. `KvOp::Keys`) touches
//! every shard's slice, so on a table whose slots span more than one
//! shard the client **scatters** it: one hidden sub-operation per
//! involved shard, each riding the ordinary request/NAK/retry protocol
//! under its own global sequence number, gathered with the data type's
//! merge once every shard has answered. Keyless operators *without* a
//! merge cannot be answered truthfully from one shard's slice;
//! [`ShardedWireClient::try_submit`] refuses them with
//! [`WholeObjectUnsupported`] instead of mis-answering from the home
//! shard (the pre-fix behavior this module is named after).
//!
//! A **strict** gathered query takes a per-shard stability barrier
//! before scattering: the client probes its relay with a
//! [`FrameKind::StabilityQuery`](crate::FrameKind) frame, snapshots the
//! relay's label order as the shard's *answered frontier* (every answer
//! this client has observed from the shard came through that relay, so
//! the relay's order covers it), and polls until the relay knows the
//! whole frontier stable at every replica. Only then is the strict
//! sub-operation sent: the fresh label the relay mints for it exceeds
//! every frontier label, and the frontier's positions are final, so the
//! sub-operation lands after the frontier in the shard's eventual total
//! order — per shard exactly the paper's strict guarantee, with no
//! cross-shard commit protocol. The recorded (frontier, sub) pairs are
//! checkable after the fact against each shard's stable watermark
//! (`esds_spec::check_barrier_cut`).
//!
//! A NAK against any sub-operation re-scatters the *whole* gather under
//! the adopted table (the involved shard set itself may have changed),
//! re-taking barriers when strict — safe because gatherable operators
//! are read-only queries. Cross-shard `prev` composes in both
//! directions: a gathered query's sub-operations each carry the local
//! frontier of the gather's `prev` set, and a later operation naming a
//! gather as `prev` anchors on the gather's sub-operation on its own
//! shard.
//!
//! ## Chaos
//!
//! [`ShardedWireConfig::with_chaos`] puts a [`ChaosProxy`] in front of
//! **every per-shard listener**: all request, response-path, and gossip
//! traffic of every cluster dials through the proxies, so loss, delay,
//! duplication and reordering exercise the cross-shard waits and the
//! version handshake — not just a single group's gossip. Lost request
//! frames are re-sent by the client's retry loop (paper footnote 3);
//! lost gossip is re-shipped by the next tick (§9.3); duplicated batched
//! gossip is absorbed by the watermark handshake (§10.4).
//!
//! Rebalancing *over TCP* (executing a `MigrationPlan` handoff between
//! live clusters) is future work — see `ROADMAP.md`; the version
//! handshake and NAK re-route implemented here are its client-visible
//! half.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use esds_alg::Replica;
use esds_core::{
    ClientId, KeyedDataType, OpDescriptor, OpId, ReplicaId, RoutingTable, ShardedOpId, HOME_SLOT,
};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::chaos::{ChaosConfig, ChaosProxy};
use crate::codec::Wire;
use crate::frame::decode_frame;
use crate::message::{
    decode_message, encode_message, HelloId, ShardedRequestMsg, ShardedResponseMsg,
    StabilityInfoMsg, WireMessage,
};
use crate::tcp::{AddrTable, NodeObs, ShardCtx, TcpClusterConfig, TcpReplicaNode};

/// How often a client re-sends unanswered requests (paper footnote 3).
const RETRY_EVERY: Duration = Duration::from_millis(50);

/// How long an awaiting client sleeps between pumps. Client sockets are
/// **non-blocking** (a client pumps every shard's connection in turn, so
/// even a short blocking read per idle shard would add S× its timeout to
/// every response); this sleep bounds the resulting spin instead.
const AWAIT_NAP: Duration = Duration::from_micros(200);

/// Configuration of a sharded TCP deployment.
#[derive(Clone, Debug)]
pub struct ShardedWireConfig {
    /// Per-shard cluster configuration (replica count, gossip interval,
    /// gossip encoding, replica state-machine config).
    pub cluster: TcpClusterConfig,
    /// When set, a [`ChaosProxy`] with this fault model fronts every
    /// per-shard listener (per-proxy seeds are derived from the config's
    /// seed, so distinct links get distinct fault streams).
    pub chaos: Option<ChaosConfig>,
    /// How long a submitting client waits for a foreign-shard
    /// predecessor's response before declaring the deployment broken.
    pub cross_shard_wait: Duration,
    /// Metrics registry shared by every node, proxy, and client of the
    /// deployment (node metrics scoped `shard{s}/replica{r}/…`, proxy
    /// counters `shard{s}/chaos{r}/…`, client counters `client{c}/…`).
    /// Defaults to disabled: every handle is a no-op.
    pub obs: esds_obs::MetricsRegistry,
    /// Sampled op-lifecycle tracer shared by nodes and clients.
    /// Defaults to disabled.
    pub tracer: esds_obs::OpTracer,
}

impl ShardedWireConfig {
    /// Defaults: `n_replicas` per shard, 5 ms gossip, plain gossip
    /// encoding, no chaos, 30 s cross-shard wait, metrics and tracing
    /// disabled.
    pub fn new(n_replicas: usize) -> Self {
        ShardedWireConfig {
            cluster: TcpClusterConfig::new(n_replicas),
            chaos: None,
            cross_shard_wait: Duration::from_secs(30),
            obs: esds_obs::MetricsRegistry::disabled(),
            tracer: esds_obs::OpTracer::disabled(),
        }
    }

    /// Fronts every per-shard listener with a chaos proxy.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Overrides the cross-shard predecessor wait (default 30 s).
    #[must_use]
    pub fn with_cross_shard_wait(mut self, d: Duration) -> Self {
        self.cross_shard_wait = d;
        self
    }

    /// Installs a live metrics registry: every node, chaos proxy, and
    /// client of the deployment reports into it, and any node answers
    /// [`WireMessage::MetricsQuery`] frames from it.
    #[must_use]
    pub fn with_obs(mut self, obs: esds_obs::MetricsRegistry) -> Self {
        self.obs = obs;
        self
    }

    /// Installs a sampled op-lifecycle tracer (see `esds_obs::OpTracer`).
    #[must_use]
    pub fn with_tracer(mut self, tracer: esds_obs::OpTracer) -> Self {
        self.tracer = tracer;
        self
    }
}

/// One shard's cluster: its nodes, the address table everyone dials
/// (proxy addresses under chaos), and the proxies themselves.
struct WireShard<T: esds_core::SerialDataType> {
    nodes: Vec<TcpReplicaNode<T>>,
    addrs: AddrTable,
    proxies: Vec<ChaosProxy>,
}

/// Aggregate fault counters of a deployment's chaos proxies.
#[derive(Copy, Clone, Default, Debug)]
pub struct ChaosStats {
    /// Frames dropped across all proxies.
    pub dropped: u64,
    /// Frames forwarded (duplicates counted once).
    pub forwarded: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames emitted out of order.
    pub reordered: u64,
}

/// A sharded deployment over real sockets: one TCP cluster per shard,
/// all sharing one versioned routing table.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use esds_datatypes::{KvOp, KvStore, KvValue};
/// use esds_wire::{ShardedWireConfig, ShardedWireService};
///
/// let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(3));
/// let mut client = svc.client();
/// let put = client.submit(KvOp::put("user:1", "ada"), &[], false);
/// let get = client.submit(KvOp::get("user:1"), &[put], false);
/// assert_eq!(
///     client.await_response(get, Duration::from_secs(10)),
///     Some(KvValue::Value(Some("ada".into())))
/// );
/// svc.shutdown();
/// ```
pub struct ShardedWireService<T: KeyedDataType> {
    table: Arc<Mutex<RoutingTable>>,
    shards: Vec<WireShard<T>>,
    dt: T,
    cross_shard_wait: Duration,
    next_client: u32,
    obs: esds_obs::MetricsRegistry,
    tracer: esds_obs::OpTracer,
}

impl<T> ShardedWireService<T>
where
    T: KeyedDataType + Clone + Send + 'static,
    T::Operator: Wire + Send + Clone,
    T::Value: Wire + Send + Clone,
    T::State: Send,
{
    /// Launches `n_shards` independent clusters on ephemeral localhost
    /// ports under the initial uniform routing table (version 0).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or listeners cannot bind.
    pub fn launch(dt: T, n_shards: u32, config: ShardedWireConfig) -> Self {
        Self::launch_with_table(dt, RoutingTable::uniform(n_shards), config)
    }

    /// Launches one cluster per shard the `table` addresses, serving
    /// `table` as the deployment's authoritative routing state. Lets a
    /// deployment start mid-history (a nonzero version), which is how the
    /// NAK path is exercised against deliberately stale client views.
    ///
    /// # Panics
    ///
    /// Panics if listeners cannot bind.
    pub fn launch_with_table(dt: T, table: RoutingTable, config: ShardedWireConfig) -> Self {
        let n_shards = table.n_shards();
        let table = Arc::new(Mutex::new(table));
        let shards = (0..n_shards)
            .map(|s| Self::launch_shard(&dt, s, &table, &config))
            .collect();
        ShardedWireService {
            table,
            shards,
            dt,
            cross_shard_wait: config.cross_shard_wait,
            next_client: 0,
            obs: config.obs.clone(),
            tracer: config.tracer.clone(),
        }
    }

    /// The deployment's metrics registry (disabled unless installed via
    /// [`ShardedWireConfig::with_obs`]).
    pub fn metrics(&self) -> &esds_obs::MetricsRegistry {
        &self.obs
    }

    fn launch_shard(
        dt: &T,
        shard: u32,
        table: &Arc<Mutex<RoutingTable>>,
        config: &ShardedWireConfig,
    ) -> WireShard<T> {
        let n = config.cluster.n_replicas;
        assert!(n > 0, "each shard needs at least one replica");
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost"))
            .collect();
        let real: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        // Under chaos, everyone — clients and peer replicas alike — dials
        // through the proxies, so every frame of the shard's traffic is
        // subject to the fault model.
        let (proxies, dialed): (Vec<ChaosProxy>, Vec<SocketAddr>) = match &config.chaos {
            Some(chaos) => real
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let mut c = *chaos;
                    c.seed = chaos
                        .seed
                        .wrapping_add(u64::from(shard) * 1009)
                        .wrapping_add(i as u64 * 31);
                    let p = ChaosProxy::spawn(*a, c);
                    // The proxy's live fault counters become registry
                    // sources, read at snapshot time.
                    p.attach_metrics(&config.obs.scoped(format!("shard{shard}/chaos{i}")));
                    let addr = p.addr();
                    (p, addr)
                })
                .unzip(),
            None => (Vec::new(), real),
        };
        let addrs: AddrTable = Arc::new(Mutex::new(dialed));
        let globals: Arc<Mutex<HashMap<OpId, ShardedOpId>>> = Arc::new(Mutex::new(HashMap::new()));
        // Every node of this shard reports under `shard{s}/replica{r}`
        // and stamps shard `s` on its trace spans.
        let cluster = config.cluster.clone().with_obs(NodeObs {
            registry: config.obs.clone(),
            prefix: format!("shard{shard}"),
            shard,
            tracer: config.tracer.clone(),
        });
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                TcpReplicaNode::spawn_sharded(
                    dt.clone(),
                    ReplicaId(i as u32),
                    l,
                    addrs.clone(),
                    &cluster,
                    ShardCtx {
                        table: table.clone(),
                        globals: globals.clone(),
                    },
                )
            })
            .collect();
        WireShard {
            nodes,
            addrs,
            proxies,
        }
    }

    /// A snapshot of the deployment's routing table.
    pub fn table(&self) -> RoutingTable {
        self.table.lock().clone()
    }

    /// Number of shard clusters.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate fault counters across every chaos proxy (all zero when
    /// the deployment was launched without chaos).
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut s = ChaosStats::default();
        for shard in &self.shards {
            for p in &shard.proxies {
                s.dropped += p.dropped();
                s.forwarded += p.forwarded();
                s.duplicated += p.duplicated();
                s.reordered += p.reordered();
            }
        }
        s
    }

    /// One shard's **final watermark**: the first node's label order
    /// (shard-local ids) truncated just past the last operation that
    /// node knows is stable at every node. That truncated prefix is the
    /// final prefix of the shard's eventual total order — once an op is
    /// stable everywhere, every node's clock has passed its label, so
    /// nothing can ever be ordered at or before its position again —
    /// and, crucially, it is *gap-free*: tentative operations
    /// interleaved before the fence are included, because their
    /// positions are final even though their own stability knowledge
    /// has not yet completed. This is the `Stabilize` feed for a
    /// streaming audit ([`crate::ShardedWireAuditor`]). `None` if the
    /// node cannot answer within `timeout` (shutting down or wedged).
    pub fn stable_watermark(&self, shard: u32, timeout: Duration) -> Option<Vec<OpId>> {
        let nodes = &self.shards.get(shard as usize)?.nodes;
        let snap = nodes.first()?.stability(timeout)?;
        let mut order = snap.order;
        let solid = order
            .iter()
            .rposition(|id| snap.stable_everywhere.contains(id))
            .map_or(0, |i| i + 1);
        order.truncate(solid);
        Some(order)
    }

    /// A client with the next unused identity and a current view of the
    /// routing table.
    pub fn client(&mut self) -> ShardedWireClient<T> {
        let table = self.table();
        self.client_with_table(table)
    }

    /// A client whose initial routing view is `table` — possibly stale,
    /// in which case its first submission per shard is NAKed and the
    /// client re-routes against the authoritative table. The table must
    /// address no more shards than the deployment has.
    ///
    /// # Panics
    ///
    /// Panics if `table` addresses more shards than the deployment runs.
    pub fn client_with_table(&mut self, table: RoutingTable) -> ShardedWireClient<T> {
        assert!(
            table.n_shards() as usize <= self.shards.len(),
            "client table addresses shards the deployment does not run"
        );
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let links = self
            .shards
            .iter()
            .map(|s| {
                let n = s.nodes.len();
                ShardLink {
                    addrs: s.addrs.clone(),
                    relay: id.0 as usize % n,
                    conn: None,
                    buf: BytesMut::with_capacity(4 * 1024),
                }
            })
            .collect();
        let scope = self.obs.scoped(format!("client{}", id.0));
        ShardedWireClient {
            dt: self.dt.clone(),
            id,
            table,
            links,
            next_global: 0,
            next_local: vec![0; self.shards.len()],
            placements: BTreeMap::new(),
            pending: BTreeSet::new(),
            needs_reroute: BTreeSet::new(),
            values: BTreeMap::new(),
            gathers: BTreeMap::new(),
            scattering: BTreeSet::new(),
            stability_seen: vec![0; self.shards.len()],
            stability_last: vec![None; self.shards.len()],
            metrics_seen: vec![0; self.shards.len()],
            metrics_last: vec![None; self.shards.len()],
            cross_shard_wait: self.cross_shard_wait,
            next_retry: Instant::now() + RETRY_EVERY,
            m_submitted: scope.counter("ops_submitted"),
            m_answered: scope.counter("ops_answered"),
            m_resends: scope.counter("resends"),
            m_naks: scope.counter("nak_reroutes"),
            m_gathers: scope.counter("gathers"),
            m_await_us: scope.histogram("await_us"),
            slot_ops: HashMap::new(),
            scope,
            tracer: self.tracer.clone(),
        }
    }

    /// Stops every node and proxy, returning the final replica state
    /// machines per shard (outer index = shard, inner = replica).
    pub fn shutdown(self) -> Vec<Vec<Replica<T>>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            out.push(
                shard
                    .nodes
                    .into_iter()
                    .map(TcpReplicaNode::shutdown)
                    .collect(),
            );
            for p in shard.proxies {
                p.shutdown();
            }
        }
        out
    }
}

/// One client↔shard wire: the shard's address table and the lazily
/// dialed connection to this client's relay replica.
struct ShardLink {
    addrs: AddrTable,
    relay: usize,
    conn: Option<(SocketAddr, TcpStream)>,
    buf: BytesMut,
}

/// Where one global operation currently lives.
struct WirePlacement<O> {
    shard: u32,
    local: OpId,
    /// The operator, kept so a NAKed operation can be re-routed.
    op: O,
    /// Global `prev` sequence numbers as submitted.
    prev: Vec<u64>,
    strict: bool,
    /// The per-shard `prev` set the descriptor carried.
    local_prev: Vec<OpId>,
    /// The table version the operation was last routed under.
    version: u64,
    /// When this placement is a hidden sub-operation of a scattered
    /// whole-object query: the owning gather's global sequence. A NAK
    /// never re-routes a sub-operation alone — the whole gather is
    /// re-scattered (the involved shard set may have changed).
    gather: Option<u64>,
}

impl<O: Clone> WirePlacement<O> {
    /// The per-shard descriptor this placement is submitted as — the
    /// single source for both the request frame and the trace exposed to
    /// black-box checkers.
    fn descriptor(&self) -> OpDescriptor<O> {
        OpDescriptor::new(self.local, self.op.clone())
            .with_prev(self.local_prev.iter().copied())
            .with_strict(self.strict)
    }
}

/// A whole-object query scattered across every involved shard.
struct WireGather<O> {
    op: O,
    /// Global `prev` sequence numbers as submitted.
    prev: Vec<u64>,
    strict: bool,
    /// Involved shard → global sequence of its hidden sub-operation.
    subs: BTreeMap<u32, u64>,
    /// The table version of the current scatter.
    version: u64,
    /// Strict only: per involved shard, the relay's answered-frontier
    /// snapshot the sub-operation was barrier-ordered after — the data
    /// [`ShardedWireClient::gather_detail`] exposes for the spec-level
    /// conformance predicate.
    frontier: BTreeMap<u32, Vec<OpId>>,
}

/// A keyless operator without a gather merge was submitted against a
/// routing table whose slots span more than one shard: no single shard
/// holds the whole object, and without [`KeyedDataType::merge_gathered`]
/// the per-shard partial answers cannot be combined. Returned by
/// [`ShardedWireClient::try_submit`] instead of the pre-fix behavior of
/// silently answering from the home shard's slice.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WholeObjectUnsupported;

impl std::fmt::Display for WholeObjectUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "whole-object operator has no gather merge and the routing table spans multiple shards",
        )
    }
}

impl std::error::Error for WholeObjectUnsupported {}

/// A client of a [`ShardedWireService`]: routes `key → slot → shard`
/// through its view of the [`RoutingTable`], speaks the
/// `ShardedRequest`/`ShardedResponse` protocol with each shard's relay
/// replica, re-sends unanswered requests, and adopts newer tables from
/// version-mismatch NAKs (re-routing the refused operation).
///
/// The handle resolves only identifiers it issued itself; `prev` sets
/// may reference any of this client's earlier submissions (a front end
/// only ever learns identifiers it requested, paper §6.2).
pub struct ShardedWireClient<T: KeyedDataType> {
    dt: T,
    id: ClientId,
    table: RoutingTable,
    links: Vec<ShardLink>,
    next_global: u64,
    /// Per-shard local sequence counters (each shard is its own OpId
    /// namespace).
    next_local: Vec<u64>,
    /// Global sequence number → current placement.
    placements: BTreeMap<u64, WirePlacement<T::Operator>>,
    /// Global sequence numbers not yet answered.
    pending: BTreeSet<u64>,
    /// Pending operations refused by a NAK, awaiting re-route.
    needs_reroute: BTreeSet<u64>,
    /// Answers: global sequence → (value, witness).
    values: BTreeMap<u64, (T::Value, Option<Vec<OpId>>)>,
    /// Scattered whole-object queries by global sequence.
    gathers: BTreeMap<u64, WireGather<T::Operator>>,
    /// Gathers currently mid-scatter (re-entrancy guard: scattering can
    /// block on barriers and foreign `prev` waits, which pump and may
    /// trigger repair of *other* stale gathers, but never of the one
    /// already being scattered).
    scattering: BTreeSet<u64>,
    /// Per shard: how many [`StabilityInfoMsg`] replies have arrived,
    /// and the latest one — the barrier loop sends a fresh probe and
    /// waits for the counter to advance, so it never reads a stale
    /// snapshot.
    stability_seen: Vec<u64>,
    stability_last: Vec<Option<StabilityInfoMsg>>,
    /// Per shard: how many [`WireMessage::MetricsInfo`] replies have
    /// arrived, and the latest one — the same probe-and-advance protocol
    /// as stability, so a poll never reads a stale snapshot.
    metrics_seen: Vec<u64>,
    metrics_last: Vec<Option<esds_obs::MetricsSnapshot>>,
    cross_shard_wait: Duration,
    next_retry: Instant,
    m_submitted: esds_obs::Counter,
    m_answered: esds_obs::Counter,
    m_resends: esds_obs::Counter,
    m_naks: esds_obs::Counter,
    m_gathers: esds_obs::Counter,
    /// Bounded (log-bucketed) histogram of await-to-answer times — the
    /// fixed-footprint service-side replacement for the simulator's
    /// exact, unbounded `esds_sim::Histogram`.
    m_await_us: esds_obs::Histo,
    /// Lazily created per-slot operation counters (`slot{n}/ops`).
    slot_ops: HashMap<u16, esds_obs::Counter>,
    scope: esds_obs::Scope,
    tracer: esds_obs::OpTracer,
}

impl<T> ShardedWireClient<T>
where
    T: KeyedDataType,
    T::Operator: Wire + Clone,
    T::Value: Wire + Clone,
{
    /// The client identity (mints both global and per-shard ids).
    pub fn client(&self) -> ClientId {
        self.id
    }

    /// The routing-table version this client currently routes under.
    pub fn table_version(&self) -> u64 {
        self.table.version()
    }

    /// The shard `id` is currently placed on, if issued by this handle.
    /// `None` for a scattered whole-object query — it lives on every
    /// involved shard; see [`Self::gather_detail`].
    pub fn shard_of(&self, id: ShardedOpId) -> Option<u32> {
        self.placement(id).map(|p| p.shard)
    }

    /// The table version `id` was last routed (for a gather: scattered)
    /// under.
    pub fn routed_version(&self, id: ShardedOpId) -> Option<u64> {
        if id.client() != self.id {
            return None;
        }
        self.placements
            .get(&id.seq())
            .map(|p| p.version)
            .or_else(|| self.gathers.get(&id.seq()).map(|g| g.version))
    }

    /// For a scattered whole-object query: the per-shard sub-operation
    /// ids and — when strict — the answered-frontier snapshot each
    /// sub-operation was barrier-ordered after. Together these form the
    /// `esds_spec::ShardBarrier` records of the conformance predicate
    /// (`esds_spec::check_barrier_cut`): each shard's eventual order
    /// must place the sub-operation after its whole frontier. `None`
    /// for keyed operations and ids this handle did not issue.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(BTreeMap<u32, OpId>, BTreeMap<u32, Vec<OpId>>)> {
        if id.client() != self.id {
            return None;
        }
        let g = self.gathers.get(&id.seq())?;
        let subs = g
            .subs
            .iter()
            .map(|(shard, sub)| (*shard, self.placements[sub].local))
            .collect();
        Some((subs, g.frontier.clone()))
    }

    /// For an *answered* scattered whole-object query: the per-shard
    /// trace its hidden sub-operations contributed — `(shard,
    /// descriptor, value, witness)` in ascending shard order. Each
    /// sub-operation is an ordinary request of its shard answered with
    /// that shard's slice, so a black-box per-shard checker records
    /// these exactly like keyed traffic. `None` for keyed operations,
    /// gathers with unanswered sub-operations, and ids this handle did
    /// not issue.
    #[allow(clippy::type_complexity)]
    pub fn gather_sub_trace(
        &self,
        id: ShardedOpId,
    ) -> Option<Vec<(u32, OpDescriptor<T::Operator>, T::Value, Option<Vec<OpId>>)>> {
        if id.client() != self.id {
            return None;
        }
        let g = self.gathers.get(&id.seq())?;
        g.subs
            .iter()
            .map(|(shard, sub)| {
                let (v, w) = self.values.get(sub)?;
                Some((
                    *shard,
                    self.placements[sub].descriptor(),
                    v.clone(),
                    w.clone(),
                ))
            })
            .collect()
    }

    /// The per-shard descriptor `id` is currently submitted as (shard,
    /// local id, same-shard `prev`, strictness) — what a black-box trace
    /// checker records as the shard's `request(x)` action. Built by the
    /// same constructor as the request frame's descriptor, so the
    /// recorded trace cannot diverge from what was sent.
    pub fn local_descriptor(&self, id: ShardedOpId) -> Option<(u32, OpDescriptor<T::Operator>)> {
        self.placement(id).map(|p| (p.shard, p.descriptor()))
    }

    /// The value previously returned for `id`, if answered.
    pub fn value_of(&self, id: ShardedOpId) -> Option<&T::Value> {
        self.answer(id).map(|(v, _)| v)
    }

    /// The witness the response carried, if any (requires the deployment
    /// to run with `ReplicaConfig::with_witness`).
    pub fn witness_of(&self, id: ShardedOpId) -> Option<&Vec<OpId>> {
        self.answer(id).and_then(|(_, w)| w.as_ref())
    }

    fn placement(&self, id: ShardedOpId) -> Option<&WirePlacement<T::Operator>> {
        (id.client() == self.id)
            .then(|| self.placements.get(&id.seq()))
            .flatten()
    }

    fn answer(&self, id: ShardedOpId) -> Option<&(T::Value, Option<Vec<OpId>>)> {
        (id.client() == self.id)
            .then(|| self.values.get(&id.seq()))
            .flatten()
    }

    /// Submits an operation and returns its global id. Single-key
    /// operators route to the shard owning their key under this client's
    /// table view; a keyless, mergeable operator on a table spanning
    /// more than one shard is **scattered** across every involved shard
    /// and gathered with [`KeyedDataType::merge_gathered`] (strict
    /// gathers take a per-shard stability barrier first — see the
    /// module docs). Foreign-shard `prev` entries are awaited over the
    /// wire (blocking, up to the configured cross-shard timeout) before
    /// request frames are sent; same-shard entries — including those
    /// inherited through foreign hops, and the same-shard sub-operation
    /// of a gathered predecessor — ride each shard's own protocol as the
    /// local `prev` set.
    ///
    /// # Panics
    ///
    /// Panics if `prev` names an id this handle did not issue, if a
    /// foreign predecessor or barrier stays unanswered past the
    /// cross-shard timeout (the deployment is then considered broken —
    /// the same situation in which
    /// [`ShardedWireClient::await_response`] would return `None`), or if
    /// the operation is a whole-object query the deployment cannot
    /// gather — use [`Self::try_submit`] to handle that case as a value.
    pub fn submit(&mut self, op: T::Operator, prev: &[ShardedOpId], strict: bool) -> ShardedOpId {
        self.try_submit(op, prev, strict)
            .unwrap_or_else(|e| panic!("{e}; use try_submit to handle this case"))
    }

    /// Like [`Self::submit`], but a keyless operator without a gather
    /// merge on a multi-shard table is refused with
    /// [`WholeObjectUnsupported`] instead of panicking (answering it
    /// from one shard's slice would silently drop every other shard's
    /// contribution).
    ///
    /// # Panics
    ///
    /// As [`Self::submit`], except for the un-gatherable whole-object
    /// case, which is returned as an error.
    pub fn try_submit(
        &mut self,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> Result<ShardedOpId, WholeObjectUnsupported> {
        for g in prev {
            assert!(
                g.client() == self.id,
                "prev {g} was not issued by this client handle"
            );
            assert!(
                self.placements.contains_key(&g.seq()) || self.gathers.contains_key(&g.seq()),
                "prev {g} was never submitted via this handle"
            );
        }
        self.pump();
        let seqs: Vec<u64> = prev.iter().map(|g| g.seq()).collect();
        if self.dt.shard_key(&op).is_none() && self.table.involved_shards().len() > 1 {
            if !self.dt.is_gatherable(&op) {
                return Err(WholeObjectUnsupported);
            }
            return Ok(self.submit_gather(op, seqs, strict));
        }
        // Keyed — or keyless on a table whose slots all live on one
        // shard, where the home-slot owner holds the whole object and
        // legacy routing is exact.
        Ok(self.submit_keyed(op, seqs, strict))
    }

    fn submit_keyed(&mut self, op: T::Operator, seqs: Vec<u64>, strict: bool) -> ShardedOpId {
        let slot = self.slot_of_op(&op);
        let shard = self.table.shard_of_slot(slot);
        let version = self.table.version();
        let local_prev = self.local_frontier(&seqs, shard);
        let local = OpId::new(self.id, self.next_local[shard as usize]);
        self.next_local[shard as usize] += 1;
        let seq = self.next_global;
        self.next_global += 1;
        self.m_submitted.inc();
        if self.scope.is_enabled() {
            self.slot_ops
                .entry(slot)
                .or_insert_with(|| self.scope.counter(&format!("slot{slot}/ops")))
                .inc();
        }
        if self.tracer.is_enabled() {
            let gid = ShardedOpId::new(self.id, seq).to_string();
            self.tracer.emit(shard, &gid, esds_obs::Stage::Submit);
            self.tracer.emit(shard, &gid, esds_obs::Stage::Route);
        }
        self.placements.insert(
            seq,
            WirePlacement {
                shard,
                local,
                op,
                prev: seqs,
                strict,
                local_prev,
                version,
                gather: None,
            },
        );
        self.pending.insert(seq);
        self.send_placed(seq);
        ShardedOpId::new(self.id, seq)
    }

    fn submit_gather(&mut self, op: T::Operator, prev: Vec<u64>, strict: bool) -> ShardedOpId {
        let gid = self.next_global;
        self.next_global += 1;
        self.m_submitted.inc();
        self.m_gathers.inc();
        if self.tracer.is_enabled() {
            let gs = ShardedOpId::new(self.id, gid).to_string();
            // A gather has no single home shard; its spans carry shard 0
            // and the per-shard sub-operations trace under their own ids.
            self.tracer.emit(0, &gs, esds_obs::Stage::Submit);
        }
        let version = self.table.version();
        self.gathers.insert(
            gid,
            WireGather {
                op,
                prev,
                strict,
                subs: BTreeMap::new(),
                version,
                frontier: BTreeMap::new(),
            },
        );
        self.scatter(gid);
        ShardedOpId::new(self.id, gid)
    }

    /// (Re-)scatters gather `gid` under the current table: one hidden
    /// sub-operation per involved shard, preceded by a per-shard
    /// stability barrier when the gather is strict. Blocking (barriers
    /// and foreign `prev` waits run here), so never called from the
    /// non-blocking pump — a NAKed sub-operation waits in
    /// `needs_reroute` until [`Self::repair_gathers`] runs in an await
    /// loop.
    fn scatter(&mut self, gid: u64) {
        if !self.scattering.insert(gid) {
            return;
        }
        let deadline = Instant::now() + self.cross_shard_wait;
        let version = self.table.version();
        let involved = self.table.involved_shards();
        let (op, prev, strict) = {
            let g = &self.gathers[&gid];
            (g.op.clone(), g.prev.clone(), g.strict)
        };
        // Strict: barrier first. Snapshot each involved shard's answered
        // frontier (the relay's order) and wait until the shard knows it
        // stable everywhere; the fresh sub-operation label the relay
        // then mints exceeds every frontier label, whose positions are
        // final — so the sub-operation is ordered after everything any
        // answer this client observed could reflect.
        let mut frontier = BTreeMap::new();
        if strict {
            for s in &involved {
                let f = self.take_barrier(*s, deadline).unwrap_or_else(|| {
                    panic!(
                        "barrier on shard {s} did not stabilize within {:?}",
                        self.cross_shard_wait
                    )
                });
                frontier.insert(*s, f);
            }
        }
        // Retire the previous scatter (version-refused sub-operations):
        // once out of `pending`, straggler NAKs for them are ignored.
        let old: Vec<u64> = self.gathers[&gid].subs.values().copied().collect();
        for s in old {
            self.pending.remove(&s);
            self.needs_reroute.remove(&s);
        }
        let mut subs = BTreeMap::new();
        if self.tracer.is_enabled() {
            let gs = ShardedOpId::new(self.id, gid).to_string();
            self.tracer.emit(0, &gs, esds_obs::Stage::GatherFanout);
        }
        for shard in involved {
            let local_prev = self.local_frontier(&prev, shard);
            let local = OpId::new(self.id, self.next_local[shard as usize]);
            self.next_local[shard as usize] += 1;
            let sub = self.next_global;
            self.next_global += 1;
            self.placements.insert(
                sub,
                WirePlacement {
                    shard,
                    local,
                    op: op.clone(),
                    prev: prev.clone(),
                    strict,
                    local_prev,
                    version,
                    gather: Some(gid),
                },
            );
            self.pending.insert(sub);
            subs.insert(shard, sub);
        }
        let sub_seqs: Vec<u64> = subs.values().copied().collect();
        {
            let g = self.gathers.get_mut(&gid).expect("gathered");
            g.subs = subs;
            g.version = version;
            g.frontier = frontier;
        }
        for sub in sub_seqs {
            self.send_placed(sub);
        }
        self.scattering.remove(&gid);
    }

    /// The same-shard `prev` frontier of `seqs` — the shared
    /// [`esds_core::gather_frontier`] walk. Keyed predecessors anchor on
    /// their placement; a gathered predecessor anchors on its
    /// sub-operation on `shard`. Every foreign (or stale-scattered)
    /// predecessor encountered is awaited over the wire before the walk
    /// descends through it: once answered, its constraint is satisfied
    /// for the client-observed order and vacuous for disjoint state.
    fn local_frontier(&mut self, seqs: &[u64], shard: u32) -> Vec<OpId> {
        let wait = self.cross_shard_wait;
        esds_core::gather_frontier(seqs, shard, |seq| {
            if self.gathers.contains_key(&seq) {
                let (gprev, sub_seqs, must_wait) = {
                    let g = &self.gathers[&seq];
                    let stale = g.version != self.table.version();
                    let spans = g.subs.contains_key(&shard);
                    (
                        g.prev.clone(),
                        g.subs.clone(),
                        (stale || !spans) && !self.values.contains_key(&seq),
                    )
                };
                let sub_seqs = if must_wait {
                    // A stale gather is re-scattered (and an answered one
                    // settled) inside the await loop; re-read the subs
                    // afterwards so the anchor is the live sub-operation.
                    let answered = self.await_seq(seq, wait);
                    assert!(
                        answered,
                        "cross-shard prev {} unanswered after {:?}",
                        ShardedOpId::new(self.id, seq),
                        wait
                    );
                    self.gathers[&seq].subs.clone()
                } else {
                    sub_seqs
                };
                let subs: Vec<(u32, OpId)> = sub_seqs
                    .iter()
                    .map(|(s, sub)| (*s, self.placements[sub].local))
                    .collect();
                (subs, gprev)
            } else {
                let (p_shard, p_local, p_prev) = {
                    let p = &self.placements[&seq];
                    (p.shard, p.local, p.prev.clone())
                };
                if p_shard != shard && !self.values.contains_key(&seq) {
                    let answered = self.await_seq(seq, wait);
                    assert!(
                        answered,
                        "cross-shard prev {} unanswered after {:?}",
                        ShardedOpId::new(self.id, seq),
                        wait
                    );
                }
                (vec![(p_shard, p_local)], p_prev)
            }
        })
    }

    /// Waits until `id` is answered or `timeout` elapses, re-sending
    /// unanswered requests every 50 ms and processing NAK re-routes
    /// (for a scattered whole-object query: re-scattering it).
    pub fn await_response(&mut self, id: ShardedOpId, timeout: Duration) -> Option<T::Value> {
        if id.client() != self.id
            || !(self.placements.contains_key(&id.seq()) || self.gathers.contains_key(&id.seq()))
        {
            return None;
        }
        if self.await_seq(id.seq(), timeout) {
            return self.values.get(&id.seq()).map(|(v, _)| v.clone());
        }
        None
    }

    fn await_seq(&mut self, seq: u64, timeout: Duration) -> bool {
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            if self.values.contains_key(&seq) {
                if self.m_await_us.is_enabled() {
                    self.m_await_us.record(start.elapsed().as_micros() as u64);
                }
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.maybe_retry();
            self.pump();
            self.repair_gathers();
            std::thread::sleep(AWAIT_NAP);
        }
    }

    /// Re-scatters every unanswered gather whose scatter predates the
    /// current table (a sub-operation was NAKed and the adopted table
    /// may involve a different shard set). Runs only from blocking await
    /// loops — a re-scatter can take barriers and wait on predecessors —
    /// and never touches a gather already mid-scatter.
    fn repair_gathers(&mut self) {
        let stale: Vec<u64> = self
            .gathers
            .iter()
            .filter(|(gid, g)| {
                !self.scattering.contains(gid)
                    && !self.values.contains_key(gid)
                    && !g.subs.is_empty()
                    && g.version != self.table.version()
            })
            .map(|(gid, _)| *gid)
            .collect();
        for gid in stale {
            let current = self.gathers[&gid].version == self.table.version();
            if !current && !self.values.contains_key(&gid) {
                self.scatter(gid);
            }
        }
    }

    /// Merges every gather whose sub-operations have all been answered
    /// under the current table, caching the merged value at the gather's
    /// own global sequence.
    fn settle_gathers(&mut self) {
        let ready: Vec<u64> = self
            .gathers
            .iter()
            .filter(|(gid, g)| {
                !self.values.contains_key(gid)
                    && g.version == self.table.version()
                    && !g.subs.is_empty()
                    && g.subs.values().all(|s| self.values.contains_key(s))
            })
            .map(|(gid, _)| *gid)
            .collect();
        for gid in ready {
            let (op, parts): (T::Operator, Vec<T::Value>) = {
                let g = &self.gathers[&gid];
                // BTreeMap iteration gives ascending shard order — the
                // part order `merge_gathered` documents.
                (
                    g.op.clone(),
                    g.subs.values().map(|s| self.values[s].0.clone()).collect(),
                )
            };
            let merged = self
                .dt
                .merge_gathered(&op, parts)
                .expect("scattered operators are gatherable");
            self.values.insert(gid, (merged, None));
        }
    }

    /// The barrier on one shard: snapshot the relay's answered frontier,
    /// then poll fresh stability probes until the relay knows the whole
    /// frontier stable at every replica. `None` past `deadline`.
    fn take_barrier(&mut self, shard: u32, deadline: Instant) -> Option<Vec<OpId>> {
        let frontier = self.fresh_stability(shard, deadline)?.order;
        loop {
            let info = self.fresh_stability(shard, deadline)?;
            let stable: BTreeSet<OpId> = info.stable_everywhere.iter().copied().collect();
            if frontier.iter().all(|id| stable.contains(id)) {
                return Some(frontier);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Probes `shard`'s relay with a `StabilityQuery` and waits for a
    /// reply *newer than the probe* (the per-shard receive counter
    /// advances), re-sending every retry period — probes and replies are
    /// as losable as any other frame. `None` past `deadline`.
    fn fresh_stability(&mut self, shard: u32, deadline: Instant) -> Option<StabilityInfoMsg> {
        let baseline = self.stability_seen[shard as usize];
        let mut next_probe = Instant::now();
        loop {
            if Instant::now() >= next_probe {
                self.send_stability_query(shard);
                next_probe = Instant::now() + RETRY_EVERY;
            }
            self.maybe_retry();
            self.pump();
            if self.stability_seen[shard as usize] > baseline {
                return self.stability_last[shard as usize].clone();
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(AWAIT_NAP);
        }
    }

    /// Polls `shard`'s relay node for its **process-wide** metrics
    /// snapshot (a [`WireMessage::MetricsQuery`] frame), waiting up to
    /// `timeout` for a reply *newer than the probe* — probes and replies
    /// ride the same lossy links as everything else, so the probe is
    /// re-sent every retry period. `None` past the timeout. A node
    /// running with metrics disabled answers an empty snapshot.
    pub fn metrics_snapshot(
        &mut self,
        shard: u32,
        timeout: Duration,
    ) -> Option<esds_obs::MetricsSnapshot> {
        let deadline = Instant::now() + timeout;
        let baseline = self.metrics_seen[shard as usize];
        let mut next_probe = Instant::now();
        loop {
            if Instant::now() >= next_probe {
                let msg: WireMessage<T::Operator, T::Value> = WireMessage::MetricsQuery;
                let mut out = BytesMut::new();
                encode_message(&msg, &mut out);
                let id = self.id;
                self.links[shard as usize].send(id, &out, true);
                next_probe = Instant::now() + RETRY_EVERY;
            }
            self.maybe_retry();
            self.pump();
            if self.metrics_seen[shard as usize] > baseline {
                return self.metrics_last[shard as usize].clone();
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(AWAIT_NAP);
        }
    }

    /// Sends a `StabilityQuery` frame to `shard`'s relay. The Hello
    /// preamble is refreshed with it: the reply travels through the
    /// node's registered-clients map, so registration must have arrived.
    fn send_stability_query(&mut self, shard: u32) {
        let msg: WireMessage<T::Operator, T::Value> = WireMessage::StabilityQuery;
        let mut out = BytesMut::new();
        encode_message(&msg, &mut out);
        let id = self.id;
        self.links[shard as usize].send(id, &out, true);
    }

    /// The slot an operator is attributed to (keyless → [`HOME_SLOT`]).
    fn slot_of_op(&self, op: &T::Operator) -> u16 {
        match self.dt.shard_key(op) {
            Some(k) => self.table.slot_of_key(k),
            None => HOME_SLOT,
        }
    }

    /// Re-sends every unanswered request when the retry period lapses
    /// (paper footnote 3 — requests, like gossip, may be lost).
    fn maybe_retry(&mut self) {
        if Instant::now() < self.next_retry {
            return;
        }
        self.next_retry = Instant::now() + RETRY_EVERY;
        let due: Vec<u64> = self
            .pending
            .iter()
            .copied()
            .filter(|s| !self.needs_reroute.contains(s))
            .collect();
        // Retries refresh the Hello preamble: under chaos the original
        // Hello may have been dropped while the connection stayed up, in
        // which case the node is answering an unregistered client into
        // the void. Re-registering is idempotent and a Hello frame is a
        // few bytes, so every retry tick repairs registration for free.
        for seq in due {
            self.m_resends.inc();
            self.send_placed_refreshing(seq, true);
        }
        let rerouted: Vec<u64> = self.needs_reroute.iter().copied().collect();
        for seq in rerouted {
            if self.try_reroute(seq) {
                self.needs_reroute.remove(&seq);
            }
        }
    }

    /// Encodes and sends the request frame for a placed operation to its
    /// shard's relay. Failures are absorbed — the retry loop re-sends.
    fn send_placed(&mut self, seq: u64) {
        self.send_placed_refreshing(seq, false);
    }

    /// Like [`Self::send_placed`]; `refresh_hello` additionally repeats
    /// the Hello preamble on an already-open connection (see
    /// [`Self::maybe_retry`]).
    fn send_placed_refreshing(&mut self, seq: u64, refresh_hello: bool) {
        let p = &self.placements[&seq];
        let msg: WireMessage<T::Operator, T::Value> =
            WireMessage::ShardedRequest(ShardedRequestMsg {
                version: p.version,
                global: ShardedOpId::new(self.id, seq),
                desc: p.descriptor(),
            });
        let mut out = BytesMut::new();
        encode_message(&msg, &mut out);
        let shard = p.shard as usize;
        let id = self.id;
        self.links[shard].send(id, &out, refresh_hello);
    }

    /// Re-routes a NAK-refused operation under the (newer) adopted
    /// table. Returns false — leaving the operation queued — while a
    /// now-foreign predecessor is still unanswered; the next retry tick
    /// tries again, so a re-route can never deadlock the pump.
    fn try_reroute(&mut self, seq: u64) -> bool {
        if self.values.contains_key(&seq) {
            return true; // answered in the meantime; nothing to move
        }
        if self.placements[&seq].gather.is_some() {
            // A gather's sub-operation is never re-routed alone: the
            // adopted table may involve a different shard *set*, and a
            // strict re-scatter must re-take barriers — blocking work
            // the pump cannot do. Leave it queued; `repair_gathers`
            // re-scatters the whole gather from the await loop.
            return false;
        }
        if self.placements[&seq].version == self.table.version() {
            // Already re-routed under the current table: this NAK is a
            // straggler or a duplicate (lossy/duplicating links retry
            // the refused frame, and every copy is NAKed). Minting a
            // *new* per-shard id here would submit the operation twice —
            // the shard dedupes by id, so a second id is a second
            // application. Just re-send the current placement.
            self.send_placed(seq);
            return true;
        }
        let (op, prev) = {
            let p = &self.placements[&seq];
            (p.op.clone(), p.prev.clone())
        };
        let slot = self.slot_of_op(&op);
        let shard = self.table.shard_of_slot(slot);
        // Every foreign predecessor must already be answered — and every
        // gathered predecessor either answered or freshly scattered
        // under the current table (anchoring on a version-refused
        // sub-operation would wait on an id the shard never accepted).
        // A re-route happens inside the pump, so it must not block.
        let mut ready = true;
        let local_prev: Vec<OpId> = esds_core::gather_frontier(&prev, shard, |s| {
            if let Some(g) = self.gathers.get(&s) {
                let answered = self.values.contains_key(&s);
                if !answered && (g.version != self.table.version() || !g.subs.contains_key(&shard))
                {
                    ready = false;
                }
                let subs: Vec<(u32, OpId)> = g
                    .subs
                    .iter()
                    .map(|(sh, sub)| (*sh, self.placements[sub].local))
                    .collect();
                (subs, g.prev.clone())
            } else {
                let p = &self.placements[&s];
                if p.shard != shard && !self.values.contains_key(&s) {
                    ready = false;
                }
                (vec![(p.shard, p.local)], p.prev.clone())
            }
        });
        if !ready {
            return false;
        }
        let local = OpId::new(self.id, self.next_local[shard as usize]);
        self.next_local[shard as usize] += 1;
        let version = self.table.version();
        let p = self.placements.get_mut(&seq).expect("placed");
        p.shard = shard;
        p.local = local;
        p.local_prev = local_prev;
        p.version = version;
        self.send_placed(seq);
        true
    }

    /// Drains whatever response frames have arrived on any shard link.
    fn pump(&mut self) {
        let mut naks: Vec<(u64, RoutingTable)> = Vec::new();
        for (shard, link) in self.links.iter_mut().enumerate() {
            link.read_into_buf();
            loop {
                match decode_frame(&mut link.buf) {
                    Ok(Some(frame)) => {
                        let Ok(msg) = decode_message::<T::Operator, T::Value>(&frame) else {
                            link.conn = None;
                            link.buf.clear();
                            break;
                        };
                        match msg {
                            WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                                global,
                                resp,
                            }) if global.client() == self.id => {
                                self.pending.remove(&global.seq());
                                self.needs_reroute.remove(&global.seq());
                                // Count only first deliveries: a duplicating
                                // link may replay the response frame, and
                                // `ops_answered` must stay ≤ `ops_submitted`.
                                if let std::collections::btree_map::Entry::Vacant(e) =
                                    self.values.entry(global.seq())
                                {
                                    e.insert((resp.value, resp.witness));
                                    self.m_answered.inc();
                                    self.tracer.emit(
                                        shard as u32,
                                        &global.to_string(),
                                        esds_obs::Stage::Answer,
                                    );
                                }
                            }
                            WireMessage::ShardedResponse(ShardedResponseMsg::Nak {
                                global,
                                table,
                            }) if global.client() == self.id => {
                                self.m_naks.inc();
                                self.tracer.emit(
                                    shard as u32,
                                    &global.to_string(),
                                    esds_obs::Stage::NakReroute,
                                );
                                naks.push((global.seq(), table));
                            }
                            WireMessage::StabilityInfo(info) => {
                                self.stability_last[shard] = Some(info);
                                self.stability_seen[shard] += 1;
                            }
                            WireMessage::MetricsInfo(snap) => {
                                self.metrics_last[shard] = Some(snap);
                                self.metrics_seen[shard] += 1;
                            }
                            _ => {} // other clients' frames / plain frames: not ours
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        link.conn = None;
                        link.buf.clear();
                        break;
                    }
                }
            }
        }
        for (seq, table) in naks {
            if table.version() > self.table.version() {
                self.table = table;
            }
            if self.pending.contains(&seq) && !self.try_reroute(seq) {
                self.needs_reroute.insert(seq);
            }
        }
        self.settle_gathers();
    }
}

impl ShardLink {
    /// Ensures a live connection to the relay (Hello preamble included)
    /// and writes `frame_bytes`; failures clear the slot for a retry.
    /// With `refresh_hello`, the Hello preamble is repeated even on an
    /// already-open connection — registration at the node is idempotent,
    /// and under a lossy link the dial-time Hello may never have arrived
    /// (the node then answers an unregistered client into the void, and
    /// nothing else would ever re-register on the still-healthy socket).
    fn send(&mut self, client: ClientId, frame_bytes: &[u8], refresh_hello: bool) {
        let addr = self.addrs.lock()[self.relay];
        if self.conn.as_ref().is_some_and(|(d, _)| *d != addr) {
            self.conn = None;
        }
        let mut hello = BytesMut::new();
        // Hello frames carry no operator/value payloads, so the
        // concrete message type parameters are irrelevant here.
        encode_message::<u64, u64>(&WireMessage::Hello(HelloId::Client(client)), &mut hello);
        if self.conn.is_none() {
            let Ok(mut s) = crate::tcp::dial(&addr, Duration::from_millis(500)) else {
                return;
            };
            let _ = s.set_nonblocking(true);
            if s.write_all(&hello).is_err() {
                return;
            }
            self.buf.clear();
            self.conn = Some((addr, s));
        } else if refresh_hello {
            if let Some((_, s)) = &mut self.conn {
                if s.write_all(&hello).is_err() {
                    self.conn = None;
                    return;
                }
            }
        }
        if let Some((_, s)) = &mut self.conn {
            if s.write_all(frame_bytes).is_err() {
                self.conn = None;
            }
        }
    }

    /// Drains whatever bytes are available right now (the socket is
    /// non-blocking) into this link's frame buffer.
    fn read_into_buf(&mut self) {
        let Some((_, s)) = &mut self.conn else { return };
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => {
                    self.conn = None;
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.conn = None;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::MigrationPlan;
    use esds_datatypes::{KvOp, KvStore, KvValue};

    #[test]
    fn sharded_wire_roundtrip_and_spread() {
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(c.submit(KvOp::put(format!("k{i}"), format!("{i}")), &[], false));
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack),
                "put k{i} timed out"
            );
        }
        for i in 0..10 {
            let get = c.submit(KvOp::get(format!("k{i}")), &[], false);
            assert_eq!(
                c.await_response(get, Duration::from_secs(10)),
                Some(KvValue::Value(Some(format!("{i}"))))
            );
        }
        // Both shards actually received traffic.
        let shards: BTreeSet<u32> = (0..10)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        // A strict fence per shard: when it answers, everything before
        // it is stable at every replica of its shard, so the
        // convergence check below cannot race gossip.
        for shard in 0..2u32 {
            let key = (0..10)
                .map(|i| format!("k{i}"))
                .find(|k| table.shard_of_key(k) == shard)
                .expect("both shards have keys");
            let fence = c.submit(KvOp::get(key), &ids.clone(), true);
            assert!(
                c.await_response(fence, Duration::from_secs(30)).is_some(),
                "strict fence on shard {shard} did not stabilize"
            );
        }
        // Each shard's replicas converged among themselves.
        for (s, reps) in svc.shutdown().into_iter().enumerate() {
            let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn cross_shard_prev_waits_over_the_wire() {
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        // Submitting with a cross-shard prev blocks until wa is answered.
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        assert_eq!(c.value_of(wa), Some(&KvValue::Ack));
        assert_ne!(c.shard_of(wa), c.shard_of(wb));
        assert_eq!(
            c.await_response(wb, Duration::from_secs(10)),
            Some(KvValue::Ack)
        );
        svc.shutdown();
    }

    #[test]
    fn transitive_prev_through_foreign_hop_is_inherited() {
        // Chain A (shard s) ← B (foreign) ← C (shard s): C must carry
        // A's ordering into the shard even though its only direct prev
        // is foreign. Slow gossip keeps A from propagating on its own.
        let mut cfg = ShardedWireConfig::new(2);
        cfg.cluster.gossip_interval = Duration::from_secs(5);
        let mut svc = ShardedWireService::launch(KvStore, 2, cfg);
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let a = c.submit(KvOp::put(&ka, "1"), &[], false);
        let b = c.submit(KvOp::put(&kb, "2"), &[a], false);
        let read = c.submit(KvOp::get(&ka), &[b], false);
        assert_eq!(c.shard_of(read), c.shard_of(a), "same key, same shard");
        assert_eq!(
            c.await_response(read, Duration::from_secs(10)),
            Some(KvValue::Value(Some("1".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn stale_client_is_nakked_and_reroutes() {
        // The deployment runs at table v1 (a 2-shard table grown to 3);
        // the client's view is the v0 uniform 2-shard table. Every
        // submission under v0 is refused with a NAK carrying the v1
        // table; the client adopts it, re-routes, and the operation
        // lands on the correct shard — reads never route stale.
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        assert_eq!(grown.version(), 1);
        let mut svc = ShardedWireService::launch_with_table(
            KvStore,
            grown.clone(),
            ShardedWireConfig::new(2),
        );
        let stale = RoutingTable::uniform(2);
        let mut c = svc.client_with_table(stale.clone());
        assert_eq!(c.table_version(), 0);

        // A key the two tables route differently (one that moved to the
        // new shard).
        let key = (0..1000)
            .map(|i| format!("k{i}"))
            .find(|k| grown.shard_of_key(k) != stale.shard_of_key(k))
            .expect("some key moved");
        let put = c.submit(KvOp::put(&key, "fresh"), &[], false);
        assert_eq!(
            c.await_response(put, Duration::from_secs(10)),
            Some(KvValue::Ack)
        );
        // The NAK upgraded the client and relocated the operation.
        assert_eq!(c.table_version(), 1);
        assert_eq!(c.shard_of(put), Some(grown.shard_of_key(&key)));
        assert_eq!(c.routed_version(put), Some(1));

        // A fresh, current-table client reads the value from the right
        // shard — the stale client's write did not land on the old
        // owner. The reader relays through a *different* replica than
        // the writer, so a nonstrict read may race gossip; poll until
        // the eventually-consistent read converges (bounded).
        let mut reader = svc.client();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let get = reader.submit(KvOp::get(&key), &[], false);
            assert_eq!(reader.shard_of(get), Some(grown.shard_of_key(&key)));
            let v = reader.await_response(get, Duration::from_secs(10));
            if v == Some(KvValue::Value(Some("fresh".into()))) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "re-routed write never became visible on the new owner: {v:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        svc.shutdown();
    }

    #[test]
    fn duplicate_naks_do_not_double_apply_the_rerouted_op() {
        // Every frame is duplicated, so each stale-version request
        // provokes (at least) two NAKs for the same global operation.
        // The re-route must be idempotent: the first NAK relocates the
        // operation, stragglers merely re-send the *same* per-shard id.
        // Minting a fresh id per NAK would deposit twice — Bank is
        // non-idempotent, so the strict balance pins the exact amount.
        use esds_datatypes::{Bank, BankOp, BankValue};
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        let chaos = ChaosConfig::lossy(0.0, 77).with_duplication(1.0);
        let mut svc = ShardedWireService::launch_with_table(
            Bank,
            grown,
            ShardedWireConfig::new(2).with_chaos(chaos),
        );
        let mut c = svc.client_with_table(RoutingTable::uniform(2));
        let dep = c.submit(BankOp::Deposit(10), &[], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(BankValue::Ack)
        );
        assert_eq!(c.table_version(), 1, "NAK adopted");
        let bal = c.submit(BankOp::Balance, &[dep], true);
        assert_eq!(
            c.await_response(bal, Duration::from_secs(30)),
            Some(BankValue::Balance(10)),
            "a duplicated NAK re-minted the deposit"
        );
        let stats = svc.chaos_stats();
        assert!(stats.duplicated > 0, "duplication must actually happen");
        svc.shutdown();
    }

    /// Finds `per_shard` keys owned by every shard of `table`, drawing
    /// from a deterministic key stream.
    fn keys_covering(table: &RoutingTable, per_shard: usize) -> Vec<String> {
        let mut by_shard: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for i in 0..10_000 {
            let k = format!("k{i}");
            let owner = table.shard_of_key(&k);
            let bucket = by_shard.entry(owner).or_default();
            if bucket.len() < per_shard {
                bucket.push(k);
            }
            if by_shard.len() == table.n_shards() as usize
                && by_shard.values().all(|b| b.len() == per_shard)
            {
                break;
            }
        }
        assert_eq!(by_shard.len(), table.n_shards() as usize, "coverage");
        by_shard.into_values().flatten().collect()
    }

    #[test]
    fn whole_object_keys_gathers_union_across_shards() {
        // The PR's headline bug, on the wire: Keys is a whole-object
        // query, so on a 2-shard deployment it must return *both*
        // shards' key sets — not the home shard's slice. With every put
        // in `prev`, each per-shard sub-operation is ordered after that
        // shard's puts, so even the eventual-mode gather is exact.
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let keys = keys_covering(&table, 3);
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(c.await_response(*id, Duration::from_secs(10)).is_some());
        }
        let q = c.submit(KvOp::Keys, &puts, false);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(
            c.await_response(q, Duration::from_secs(10)),
            Some(KvValue::Keys(expect)),
            "gathered Keys must union every shard's slice"
        );
        assert_eq!(c.shard_of(q), None, "a gather lives on every shard");
        let (subs, frontier) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 2, "one sub-operation per involved shard");
        assert!(frontier.is_empty(), "eventual gathers take no barrier");
        // A gathered query works as a `prev`: the dependent get anchors
        // on the gather's sub-operation on its own shard.
        let dep = c.submit(KvOp::get(&keys[0]), &[q], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(KvValue::Value(Some("v".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn barrier_strict_keys_is_exact_on_four_shards() {
        // Acceptance: on a live 4-shard TCP deployment, a barrier-strict
        // Keys with *no* prev returns exactly the union a 1-shard
        // deployment would — everything this client has been answered
        // for is covered by each relay's frontier snapshot — and the
        // recorded (frontier, sub) pairs satisfy the spec-level barrier
        // predicate against each shard's stable watermark.
        use esds_spec::{check_barrier_cut, ShardBarrier};
        let mut svc = ShardedWireService::launch(KvStore, 4, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let keys = keys_covering(&table, 3);
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(c.await_response(*id, Duration::from_secs(10)).is_some());
        }
        let q = c.submit(KvOp::Keys, &[], true);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(
            c.await_response(q, Duration::from_secs(30)),
            Some(KvValue::Keys(expect)),
            "barrier-strict Keys must equal the 1-shard union"
        );
        let (subs, frontier) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 4);
        assert_eq!(frontier.len(), 4, "strict gathers barrier every shard");
        for (shard, sub) in &subs {
            let b = ShardBarrier {
                shard: *shard,
                frontier: frontier[shard].clone(),
                sub: *sub,
            };
            // The watermark grows to include the strict sub-operation
            // (it was answered, hence stable); then the barrier cut must
            // hold in the shard's final order prefix.
            let deadline = Instant::now() + Duration::from_secs(30);
            let order = loop {
                let w = svc
                    .stable_watermark(*shard, Duration::from_secs(5))
                    .expect("node answers stability probes");
                if w.contains(sub) {
                    break w;
                }
                assert!(
                    Instant::now() < deadline,
                    "sub-operation never entered shard {shard}'s watermark"
                );
                std::thread::sleep(Duration::from_millis(10));
            };
            assert_eq!(
                check_barrier_cut(&b, &order),
                Vec::new(),
                "barrier violated on shard {shard}"
            );
        }
        svc.shutdown();
    }

    #[test]
    fn ungatherable_whole_object_is_refused_on_multishard_tables() {
        // A keyless operator without a merge cannot be answered from one
        // shard's slice: `try_submit` refuses it with the typed error on
        // a multi-shard table, and `submit` would panic. On a 1-shard
        // table the home slot's owner holds the whole object, so legacy
        // routing stays exact and allowed.
        #[derive(Clone)]
        struct NoGatherKv;
        impl esds_core::SerialDataType for NoGatherKv {
            type State = <KvStore as esds_core::SerialDataType>::State;
            type Operator = KvOp;
            type Value = KvValue;
            fn initial_state(&self) -> Self::State {
                KvStore.initial_state()
            }
            fn apply(&self, s: &Self::State, op: &Self::Operator) -> (Self::State, Self::Value) {
                KvStore.apply(s, op)
            }
        }
        impl KeyedDataType for NoGatherKv {
            fn shard_key<'a>(&self, op: &'a KvOp) -> Option<&'a str> {
                KvStore.shard_key(op)
            }
            // merge_gathered: default None — Keys becomes un-gatherable.
        }

        let mut svc = ShardedWireService::launch(NoGatherKv, 2, ShardedWireConfig::new(1));
        let mut c = svc.client();
        assert_eq!(
            c.try_submit(KvOp::Keys, &[], false),
            Err(WholeObjectUnsupported)
        );
        assert_eq!(
            c.try_submit(KvOp::Keys, &[], true),
            Err(WholeObjectUnsupported),
            "strictness does not make a partial answer true"
        );
        // Keyed operators are unaffected.
        let put = c.submit(KvOp::put("a", "1"), &[], false);
        assert!(c.await_response(put, Duration::from_secs(10)).is_some());
        svc.shutdown();

        let mut single = ShardedWireService::launch(NoGatherKv, 1, ShardedWireConfig::new(1));
        let mut c1 = single.client();
        let w = c1.submit(KvOp::put("a", "1"), &[], false);
        let q = c1
            .try_submit(KvOp::Keys, &[w], false)
            .expect("one shard holds the whole object");
        assert_eq!(
            c1.await_response(q, Duration::from_secs(10)),
            Some(KvValue::Keys(vec!["a".into()]))
        );
        single.shutdown();
    }

    #[test]
    fn nakked_gather_rescatters_under_adopted_table() {
        // Satellite: a gather scattered under a stale table is NAKed per
        // sub-operation; the client must adopt the newer table and
        // re-scatter the *whole* query across the new involved shard
        // set — the fix for keyless routing racing a table flip.
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        let mut svc = ShardedWireService::launch_with_table(
            KvStore,
            grown.clone(),
            ShardedWireConfig::new(2),
        );
        // Seed all three shards through a current-table client.
        let keys = keys_covering(&grown, 2);
        let mut seeder = svc.client();
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(seeder.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(seeder
                .await_response(*id, Duration::from_secs(10))
                .is_some());
        }
        // The stale client's *first* submission is the gather: both v0
        // sub-operations are refused, the v1 table is adopted, and the
        // repair re-scatters across all three shards.
        let mut c = svc.client_with_table(RoutingTable::uniform(2));
        assert_eq!(c.table_version(), 0);
        let q = c.submit(KvOp::Keys, &[], false);
        assert!(
            c.await_response(q, Duration::from_secs(30)).is_some(),
            "re-scattered gather never answered"
        );
        assert_eq!(c.table_version(), 1, "NAK adopted");
        assert_eq!(c.routed_version(q), Some(1), "gather re-scattered");
        let (subs, _) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 3, "new shard set includes the added shard");
        // An eventual read may predate gossip of the seeder's puts;
        // poll until the union converges to the full key set (bounded).
        let mut expect = keys.clone();
        expect.sort();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let q = c.submit(KvOp::Keys, &[], false);
            let v = c.await_response(q, Duration::from_secs(10));
            if v == Some(KvValue::Keys(expect.clone())) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "gathered union never converged: {v:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        svc.shutdown();
    }

    #[test]
    fn chaos_fronts_every_listener_and_work_completes() {
        // 10% loss plus duplication on every frame of every shard's
        // traffic (requests, responses, gossip): retries and gossip
        // re-shipping must still drive a cross-shard chain to completion.
        let chaos = ChaosConfig::lossy(0.10, 1234).with_duplication(0.10);
        let mut svc =
            ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2).with_chaos(chaos));
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        let ra = c.submit(KvOp::get(&ka), &[wb], false);
        assert_eq!(
            c.await_response(ra, Duration::from_secs(30)),
            Some(KvValue::Value(Some("1".into())))
        );
        let stats = svc.chaos_stats();
        assert!(stats.forwarded > 0, "proxies must carry the traffic");
        svc.shutdown();
    }
}

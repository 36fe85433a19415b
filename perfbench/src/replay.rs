//! The single-threaded replay behind the `replica`, `codec` and `store`
//! layer numbers. Those layers run inside node threads, where the
//! benchmark cannot put spans around them; the replay drives the same
//! seeded op stream through the same public calls in one thread:
//! `FrontEnd` → `encode_message`/`decode_message` → `Replica::on_request`
//! → `Persistence::persist` (a `DurableStore` on `FileStorage`) → the
//! response back through the codec, interleaving `poll_gossip` → codec →
//! `on_gossip_envelope` at the gossip-messages-per-op rate the traced
//! deployment recorded. Time is the deployment's: each operation is
//! submitted when the traced deployment's client submitted it, each
//! replica ticks at its own seeded phase, as nodes do, once per period
//! chosen so that the message rate matches, and a message reaches its
//! peer a fixed hop delay after it was sent.

use std::collections::BTreeMap;
use std::path::Path;

use bytes::BytesMut;
use esds_alg::{
    FrontEnd, GossipEnvelope, Persistence, RelayPolicy, Replica, ReplicaConfig, ReplicaStats,
    RequestMsg, RespondEffect,
};
use esds_core::{ClientId, OpId, ReplicaId, RoutingTable, ShardedOpId};
use esds_datatypes::{KvOp, KvStore, KvValue};
use esds_obs::Scope;
use esds_store::{DurableConfig, DurableStore, FileStorage};
use esds_wire::frame::decode_frame;
use esds_wire::{
    decode_message, encode_message, ShardedRequestMsg, ShardedResponseMsg, WireMessage,
};

use crate::deploy::kv_op;
use crate::gen::{key_name, GenOp, SplitMix64};
use crate::trace::Spans;

type Msg = WireMessage<KvOp, KvValue>;

/// What to replay against.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    pub shards: u32,
    pub replicas: usize,
    /// Requests and responses travel as the sharded TCP frames
    /// (`ShardedRequest`/`ShardedResponse`); otherwise as the plain
    /// `Request`/`Response` frames.
    pub sharded_frames: bool,
    /// Seconds between two gossip ticks of one replica, set so the
    /// replay sends the gossip messages per second the deployment sent.
    pub tick_period: f64,
    /// Seconds from sending a gossip message to its handling at the peer.
    pub hop_delay: f64,
    /// Seeds the replicas' tick phases.
    pub seed: u64,
}

pub struct ReplayOutcome {
    /// Client operations replayed, all answered.
    pub ops: u64,
    pub gossip_msgs: u64,
    pub stats: ReplicaStats,
    pub gossip_frame_bytes: Vec<f64>,
    /// `Replica::on_request` durations in µs, in submission order.
    pub on_request_us: Vec<f64>,
    /// Seconds from submitting each strict operation to its answer.
    pub strict_lag: Vec<f64>,
}

struct Node {
    rep: Replica<KvStore>,
    store: Box<dyn Persistence<KvStore>>,
}

struct Replay<'a> {
    cfg: ReplayConfig,
    nodes: Vec<Vec<Node>>,
    /// Per (client, shard): the client's front end for that shard.
    fes: BTreeMap<(u32, u32), FrontEnd<KvOp, KvValue>>,
    spans: &'a mut Spans,
    /// Per gossiping replica: `(next tick, shard, replica)`.
    ticks: Vec<(f64, u32, u32)>,
    /// Gossip on its way: `(due, shard, to, message)`.
    inflight: Vec<(f64, u32, u32, GossipEnvelope<KvOp>)>,
    /// The replay's time now, in seconds of the deployment's window.
    clock: f64,
    /// Submit time of each unanswered strict operation, by
    /// `(client, shard, id)`.
    strict_at: BTreeMap<(u32, u32, OpId), f64>,
    next_global: BTreeMap<u32, u64>,
    out: ReplayOutcome,
}

fn encode(msg: &Msg) -> BytesMut {
    let mut out = BytesMut::new();
    encode_message(msg, &mut out);
    out
}

fn decode(mut frame: BytesMut) -> Msg {
    let f = decode_frame(&mut frame)
        .expect("replayed frame is well formed")
        .expect("replayed frame is complete");
    decode_message(&f).expect("replayed message decodes")
}

impl Replay<'_> {
    fn persist(&mut self, shard: u32, r: u32, op: u64, parent: u64) -> Result<(), String> {
        let s = self.spans.begin("store.persist", op, Some(parent));
        let node = &mut self.nodes[shard as usize][r as usize];
        let res = node.store.persist(&mut node.rep);
        self.spans.end(s);
        res
    }

    /// Sends responses back through the codec to their front ends.
    fn deliver(&mut self, shard: u32, effects: Vec<RespondEffect<KvValue>>, op: u64, parent: u64) {
        for e in effects {
            let s = self.spans.begin("codec.response_encode", op, Some(parent));
            let frame = if self.cfg.sharded_frames {
                let global = ShardedOpId::new(e.client, e.msg.id.seq());
                encode(&WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                    global,
                    resp: e.msg,
                }))
            } else {
                encode(&WireMessage::Response(e.msg))
            };
            self.spans.end(s);
            let s = self.spans.begin("codec.response_decode", op, Some(parent));
            let msg = match decode(frame) {
                WireMessage::ShardedResponse(ShardedResponseMsg::Ok { resp, .. })
                | WireMessage::Response(resp) => resp,
                other => panic!("replayed response decoded as {other:?}"),
            };
            self.spans.end(s);
            let fe = self
                .fes
                .get_mut(&(e.client.0, shard))
                .expect("front end per client and shard");
            if let Some(d) = fe.on_response(msg) {
                if let Some(t) = self.strict_at.remove(&(e.client.0, shard, d.id)) {
                    self.out.strict_lag.push(self.clock - t);
                }
            }
        }
    }

    fn request(
        &mut self,
        client: u32,
        shard: u32,
        op: &GenOp,
        prev: Option<OpId>,
        op_id: u64,
        parent: u64,
    ) -> Result<OpId, String> {
        let fe = self
            .fes
            .get_mut(&(client, shard))
            .expect("front end per client and shard");
        let (id, sends) = fe.submit(kv_op(op), prev, op.is_strict());
        if op.is_strict() {
            self.strict_at.insert((client, shard, id), self.clock);
        }
        for (r, RequestMsg { desc }) in sends {
            let s = self
                .spans
                .begin("codec.request_encode", op_id, Some(parent));
            let frame = if self.cfg.sharded_frames {
                let seq = self.next_global.entry(client).or_default();
                *seq += 1;
                encode(&WireMessage::ShardedRequest(ShardedRequestMsg {
                    version: 0,
                    global: ShardedOpId::new(ClientId(client), *seq),
                    desc,
                }))
            } else {
                encode(&WireMessage::Request(RequestMsg { desc }))
            };
            self.spans.end(s);
            let s = self
                .spans
                .begin("codec.request_decode", op_id, Some(parent));
            let desc = match decode(frame) {
                WireMessage::ShardedRequest(m) => m.desc,
                WireMessage::Request(m) => m.desc,
                other => panic!("replayed request decoded as {other:?}"),
            };
            self.spans.end(s);
            let s = self.spans.begin("replica.on_request", op_id, Some(parent));
            let effects = self.nodes[shard as usize][r.0 as usize]
                .rep
                .on_request(desc);
            let us = self.spans.end(s);
            self.out.on_request_us.push(us);
            self.persist(shard, r.0, op_id, parent)?;
            self.deliver(shard, effects, op_id, parent);
        }
        Ok(id)
    }

    /// Sends one gossip message `from` → `to` through the codec; the
    /// peer handles it [`ReplayConfig::hop_delay`] later.
    fn send_gossip(
        &mut self,
        shard: u32,
        from: u32,
        to: u32,
        op: u64,
        parent: u64,
    ) -> Result<(), String> {
        let s = self.spans.begin("replica.poll_gossip", op, Some(parent));
        let env = self.nodes[shard as usize][from as usize]
            .rep
            .poll_gossip(ReplicaId(to));
        self.spans.end(s);
        let Some(env) = env else { return Ok(()) };
        self.persist(shard, from, op, parent)?;
        let s = self.spans.begin("codec.gossip_encode", op, Some(parent));
        let frame = match env {
            GossipEnvelope::Snapshot(g) => encode(&WireMessage::Gossip(g)),
            GossipEnvelope::Batched(b) => encode(&WireMessage::GossipBatched(b)),
        };
        self.spans.end(s);
        self.out.gossip_frame_bytes.push(frame.len() as f64);
        let s = self.spans.begin("codec.gossip_decode", op, Some(parent));
        let env = match decode(frame) {
            WireMessage::Gossip(g) => GossipEnvelope::Snapshot(g),
            WireMessage::GossipBatched(b) => GossipEnvelope::Batched(b),
            other => panic!("replayed gossip decoded as {other:?}"),
        };
        self.spans.end(s);
        let due = self.clock + self.cfg.hop_delay;
        self.inflight.push((due, shard, to, env));
        Ok(())
    }

    fn receive_gossip(
        &mut self,
        shard: u32,
        to: u32,
        env: GossipEnvelope<KvOp>,
        op: u64,
        parent: u64,
    ) -> Result<(), String> {
        let s = self.spans.begin("replica.on_gossip", op, Some(parent));
        let effects = self.nodes[shard as usize][to as usize]
            .rep
            .on_gossip_envelope(env);
        self.spans.end(s);
        self.persist(shard, to, op, parent)?;
        self.deliver(shard, effects, op, parent);
        self.out.gossip_msgs += 1;
        Ok(())
    }

    /// The time of the next gossip event: a tick or a delivery.
    fn next_event(&self) -> Option<f64> {
        let ticks = self.ticks.iter().map(|t| t.0);
        let deliveries = self.inflight.iter().map(|m| m.0);
        ticks.chain(deliveries).min_by(f64::total_cmp)
    }

    /// Runs every gossip event due by time `now`, earliest first,
    /// deliveries before ticks at equal times. Like a node's host loop, a
    /// ticking replica polls gossip for each peer in turn.
    fn advance(&mut self, now: f64, op: u64, parent: u64) -> Result<(), String> {
        while let Some(t) = self.next_event().filter(|t| *t <= now) {
            self.clock = t;
            if let Some(i) = self.inflight.iter().position(|m| m.0 == t) {
                let (_, shard, to, env) = self.inflight.remove(i);
                self.receive_gossip(shard, to, env, op, parent)?;
                continue;
            }
            let i = self
                .ticks
                .iter()
                .position(|x| x.0 == t)
                .expect("the next event is a tick");
            let (_, shard, from) = self.ticks[i];
            self.ticks[i].0 += self.cfg.tick_period;
            for to in 0..self.cfg.replicas as u32 {
                if to != from {
                    self.send_gossip(shard, from, to, op, parent)?;
                }
            }
        }
        self.clock = now;
        Ok(())
    }

    fn waiting(&self) -> usize {
        self.fes.values().map(|fe| fe.waiting_ids().len()).sum()
    }
}

/// Replays `streams` (one per client), submitting op `i` of client `c`
/// at `submit_s[c][i]`, on a fresh cluster whose stores live under
/// `dir`, recording spans into `spans` with op ids from `op_base`. Every
/// store reports into `wal`.
pub fn replay(
    streams: &[Vec<GenOp>],
    submit_s: &[Vec<f64>],
    cfg: ReplayConfig,
    dir: &Path,
    wal: &Scope,
    spans: &mut Spans,
    op_base: u64,
) -> Result<ReplayOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    let n = cfg.replicas;
    let mut nodes = Vec::new();
    for s in 0..cfg.shards {
        let mut shard = Vec::new();
        for r in 0..n {
            let storage =
                FileStorage::open(dir.join(format!("s{s}r{r}"))).map_err(|e| e.to_string())?;
            let (mut store, rep, _) = DurableStore::open(
                KvStore,
                storage,
                ReplicaId(r as u32),
                n,
                ReplicaConfig::default(),
                DurableConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            store.attach_metrics(wal);
            shard.push(Node {
                rep,
                store: Box::new(store),
            });
        }
        nodes.push(shard);
    }
    let mut fes = BTreeMap::new();
    for c in 0..streams.len() as u32 {
        for s in 0..cfg.shards {
            let relay = ReplicaId(c % n as u32);
            fes.insert(
                (c, s),
                FrontEnd::new(ClientId(c), n, RelayPolicy::Fixed(relay)),
            );
        }
    }
    let period = cfg.tick_period;
    let mut rng = SplitMix64::new(cfg.seed);
    let mut ticks = Vec::new();
    if n > 1 && period.is_finite() {
        for s in 0..cfg.shards {
            for r in 0..n as u32 {
                let phase = rng.next_u64() as f64 / u64::MAX as f64 * period;
                ticks.push((phase, s, r));
            }
        }
    }
    let table = RoutingTable::uniform(cfg.shards);
    let mut rp = Replay {
        cfg,
        nodes,
        fes,
        spans,
        ticks,
        inflight: Vec::new(),
        clock: 0.0,
        strict_at: BTreeMap::new(),
        next_global: BTreeMap::new(),
        out: ReplayOutcome {
            ops: streams.iter().map(|s| s.len() as u64).sum(),
            gossip_msgs: 0,
            stats: ReplicaStats::default(),
            gossip_frame_bytes: Vec::new(),
            on_request_us: Vec::new(),
            strict_lag: Vec::new(),
        },
    };
    let mut last_put: Vec<Option<(u32, OpId)>> = vec![None; streams.len()];
    let mut schedule: Vec<(f64, usize, usize)> = submit_s
        .iter()
        .enumerate()
        .flat_map(|(c, times)| times.iter().enumerate().map(move |(i, t)| (*t, c, i)))
        .collect();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (t, c, i) in schedule {
        let op = &streams[c][i];
        let op_id = op_base + ((c as u64) << 24) + i as u64;
        let root = rp.spans.begin("replay.op", op_id, None);
        let parent = root.id();
        rp.advance(t, op_id, parent)?;
        let shards: Vec<u32> = match op.key() {
            Some(k) => vec![table.shard_of_key(&key_name(k))],
            None => (0..cfg.shards).collect(),
        };
        for shard in shards {
            let prev = match (op, last_put[c]) {
                (
                    GenOp::Get {
                        after_put: true, ..
                    },
                    Some((s, id)),
                ) if s == shard => Some(id),
                _ => None,
            };
            let id = rp.request(c as u32, shard, op, prev, op_id, parent)?;
            if matches!(op, GenOp::Put { .. }) {
                last_put[c] = Some((shard, id));
            }
        }
        rp.spans.end(root);
    }
    // Drain: strict operations answer once stable, which takes gossip.
    let drain_id = op_base + (0xFF << 24);
    let root = rp.spans.begin("replay.drain", drain_id, None);
    let mut events = 0;
    while rp.waiting() > 0 && events < 100_000 {
        let Some(t) = rp.next_event() else { break };
        rp.advance(t, drain_id, root.id())?;
        events += 1;
    }
    rp.spans.end(root);
    if rp.waiting() > 0 {
        return Err(format!(
            "replay left {} operations unanswered",
            rp.waiting()
        ));
    }
    let mut stats = ReplicaStats::default();
    for shard in &rp.nodes {
        for node in shard {
            let x = node.rep.stats();
            stats.response_applies += x.response_applies;
            stats.memo_applies += x.memo_applies;
            stats.gossip_out += x.gossip_out;
            stats.gossip_out_bytes += x.gossip_out_bytes;
        }
    }
    rp.out.stats = stats;
    let out = rp.out;
    drop(rp.nodes);
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

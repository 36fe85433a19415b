//! Message alphabet of the algorithm (paper §6.1).
//!
//! Three message sets: requests (front end → replica), responses
//! (replica → front end), and gossip (replica → replica). A gossip message
//! `⟨"gossip", R, D, L, S⟩` carries the sender's received operations,
//! done set, label function, and stable set. The summary-bearing variant
//! [`BatchedGossipMsg`] (§10.2 + §10.4) carries `D` and `S` as
//! [`IdSummary`] watermark vectors, `R`/`L` pruned by what the receiver
//! acknowledged, and piggybacks the `known` handshake that is the
//! sender's own acknowledgement.

use esds_core::{IdSummary, Label, OpDescriptor, OpId, ReplicaId};
use serde::{Deserialize, Serialize};

/// A request message `⟨"request", x⟩` from a front end to a replica.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RequestMsg<O> {
    /// The operation descriptor being requested.
    pub desc: OpDescriptor<O>,
}

/// A response message `⟨"response", x, v⟩` from a replica to a front end.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ResponseMsg<V> {
    /// The operation being answered.
    pub id: OpId,
    /// The computed return value.
    pub value: V,
    /// Optional checker witness: the ids the replica applied, in local
    /// label order, up to and including `id`. Present only when witness
    /// recording is enabled (testing); see `esds-spec`'s checkers.
    pub witness: Option<Vec<OpId>>,
}

/// A gossip message `⟨"gossip", R, D, L, S⟩` (paper §6.1, §6.3).
///
/// `R` carries full descriptors (receivers need `prev` sets to honour
/// do_it's precondition); `D` and `S` carry identifiers; `L` carries the
/// finite part of the sender's label function (absent entries are `∞`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GossipMsg<O> {
    /// Sending replica.
    pub from: ReplicaId,
    /// `R`: operations the sender has received.
    pub rcvd: Vec<OpDescriptor<O>>,
    /// `D`: operations done at the sender.
    pub done: Vec<OpId>,
    /// `L`: the sender's minimum label for each labeled operation.
    pub labels: Vec<(OpId, Label)>,
    /// `S`: operations stable at the sender.
    pub stable: Vec<OpId>,
}

impl<O> GossipMsg<O> {
    /// Approximate wire size in bytes, for the §10.4 communication
    /// experiments: descriptors cost their id + prev entries + a small
    /// operator estimate, ids 16 bytes, label entries 32 bytes.
    pub fn approx_bytes(&self) -> usize {
        let desc_bytes: usize = self.rcvd.iter().map(OpDescriptor::approx_bytes).sum();
        desc_bytes + 16 * self.done.len() + 32 * self.labels.len() + 16 * self.stable.len()
    }

    /// Total entries across all four components (a size proxy independent
    /// of encoding).
    pub fn entry_count(&self) -> usize {
        self.rcvd.len() + self.done.len() + self.labels.len() + self.stable.len()
    }

    /// Whether the message carries no information (what a recovering
    /// replica sends).
    pub fn is_empty(&self) -> bool {
        self.entry_count() == 0
    }
}

/// A **batched** gossip message (paper §10.2 + §10.4, the
/// `GossipStrategy::Batched` wire contract).
///
/// Relative to the snapshot message [`GossipMsg`]:
///
/// * `R` and `L` are pruned by the receiver's acknowledgements: every
///   descriptor its `known` handshakes do not cover, and the label of
///   every operation it has not reported stable. Nothing depends on an
///   earlier batch having arrived;
/// * `D` and `S` are *complete* [`IdSummary`] encodings of the sender's
///   `done[r]`/`stable[r]` — O(#clients) bytes in steady state, and the
///   receiver folds in only the difference against what it has already
///   seen from this sender ([`IdSummary::difference`]), so `stable`
///   doubles as the piggybacked stable-prefix acknowledgement;
/// * `known` is the **watermark handshake**: a summary of every
///   identifier the sender has received. The receiver records it and
///   prunes its next batch to this sender accordingly, so in steady state
///   neither side re-ships history;
/// * `incarnation` and `acked` tie acknowledgements to one life of a
///   replica: a restarted sender's handshakes replace its pre-crash ones,
///   and a receiver ignores the knowledge of a batch pruned against its
///   own previous life.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BatchedGossipMsg<O> {
    /// Sending replica.
    pub from: ReplicaId,
    /// The sender's incarnation (see `Replica::incarnation`).
    pub incarnation: u64,
    /// The receiver incarnation whose acknowledgements pruned `R`/`L`.
    pub acked: u64,
    /// `R`: descriptors the receiver has not acknowledged.
    pub rcvd: Vec<OpDescriptor<O>>,
    /// `D`: operations done at the sender, as a summary.
    pub done: IdSummary,
    /// `L`: labels of operations the receiver has not reported stable.
    pub labels: Vec<(OpId, Label)>,
    /// `S`: operations stable at the sender, as a summary (the
    /// stable-prefix acknowledgement).
    pub stable: IdSummary,
    /// Handshake: every identifier the sender has received, as a summary.
    pub known: IdSummary,
}

impl<O> BatchedGossipMsg<O> {
    /// Approximate wire size in bytes, comparable to
    /// [`GossipMsg::approx_bytes`]. Every payload field is counted — the
    /// two knowledge summaries, the handshake summary, and `R`/`L` — so
    /// the `tab_gossip_strategies` byte columns stay honest about the
    /// handshake overhead batching adds. The fixed header (`from` and the
    /// two incarnations) is left out, as [`GossipMsg::approx_bytes`]
    /// leaves out `from`.
    pub fn approx_bytes(&self) -> usize {
        let desc_bytes: usize = self.rcvd.iter().map(OpDescriptor::approx_bytes).sum();
        desc_bytes
            + self.done.approx_bytes()
            + 32 * self.labels.len()
            + self.stable.approx_bytes()
            + self.known.approx_bytes()
    }
}

/// Any replica-to-replica message: a §6.1 snapshot or a §10.4 batch.
///
/// Transports (the simulator, the threaded runtime, the TCP layer) carry
/// this type; [`crate::Replica::poll_gossip`] produces it and
/// [`crate::Replica::on_gossip_envelope`] consumes it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GossipEnvelope<O> {
    /// A full `(R, D, L, S)` snapshot.
    Snapshot(GossipMsg<O>),
    /// A batched delta with summary watermarks.
    Batched(BatchedGossipMsg<O>),
}

impl<O> GossipEnvelope<O> {
    /// The sending replica.
    pub fn from(&self) -> ReplicaId {
        match self {
            GossipEnvelope::Snapshot(g) => g.from,
            GossipEnvelope::Batched(b) => b.from,
        }
    }

    /// Approximate wire size in bytes (see the per-variant methods).
    pub fn approx_bytes(&self) -> usize {
        match self {
            GossipEnvelope::Snapshot(g) => g.approx_bytes(),
            GossipEnvelope::Batched(b) => b.approx_bytes(),
        }
    }
}

impl<O: Clone> GossipEnvelope<O> {
    /// The snapshot-shaped view of this message: what the receiver will
    /// know after absorbing it (batched `D`/`S` summaries expanded to id
    /// lists). Used by in-flight tracking for the checkers; cost is
    /// O(len) for batched messages, so not for hot paths.
    pub fn to_snapshot(&self) -> GossipMsg<O> {
        match self {
            GossipEnvelope::Snapshot(g) => g.clone(),
            GossipEnvelope::Batched(b) => GossipMsg {
                from: b.from,
                rcvd: b.rcvd.clone(),
                done: b.done.iter().collect(),
                labels: b.labels.clone(),
                stable: b.stable.iter().collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::ClientId;

    #[test]
    fn approx_bytes_counts_components() {
        let id = OpId::new(ClientId(0), 0);
        let id2 = OpId::new(ClientId(0), 1);
        let g = GossipMsg {
            from: ReplicaId(0),
            rcvd: vec![
                OpDescriptor::new(id, ()),
                OpDescriptor::new(id2, ()).with_prev([id]),
            ],
            done: vec![id],
            labels: vec![(id, Label::new(0, ReplicaId(0)))],
            stable: vec![],
        };
        // 40 + (40 + 16) + 16 + 32 + 0
        assert_eq!(g.approx_bytes(), 144);
        assert_eq!(g.entry_count(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_message() {
        let g: GossipMsg<()> = GossipMsg {
            from: ReplicaId(1),
            rcvd: vec![],
            done: vec![],
            labels: vec![],
            stable: vec![],
        };
        assert!(g.is_empty());
        assert_eq!(g.approx_bytes(), 0);
    }

    #[test]
    fn batched_bytes_count_every_summary_field() {
        let id = OpId::new(ClientId(0), 0);
        let b: BatchedGossipMsg<()> = BatchedGossipMsg {
            from: ReplicaId(0),
            incarnation: 0,
            acked: 0,
            rcvd: vec![OpDescriptor::new(id, ())],
            done: IdSummary::from_ids([id]),
            labels: vec![(id, Label::new(0, ReplicaId(0)))],
            stable: IdSummary::new(),
            known: IdSummary::from_ids([id, OpId::new(ClientId(0), 1)]),
        };
        // 40 (descriptor) + 12 (done watermark) + 32 (label) + 0 (stable)
        // + 12 (known watermark): the handshake is NOT free.
        assert_eq!(b.approx_bytes(), 96);
        let without_known = 40 + 12 + 32;
        assert!(b.approx_bytes() > without_known);
        assert_eq!(GossipEnvelope::Batched(b.clone()).approx_bytes(), 96);
        assert_eq!(GossipEnvelope::Batched(b).from(), ReplicaId(0));
    }

    #[test]
    fn batched_summaries_stay_small_on_dense_history() {
        // 1000 done ids from 4 clients: a snapshot ships 16 kB of D ids, a
        // batch ships 4 watermark entries.
        let done: IdSummary = (0..4u32)
            .flat_map(|c| (0..250u64).map(move |s| OpId::new(ClientId(c), s)))
            .collect();
        let b: BatchedGossipMsg<()> = BatchedGossipMsg {
            from: ReplicaId(0),
            incarnation: 0,
            acked: 0,
            rcvd: vec![],
            done: done.clone(),
            labels: vec![],
            stable: done.clone(),
            known: done.clone(),
        };
        let snapshot: GossipMsg<()> = GossipMsg {
            from: ReplicaId(0),
            rcvd: vec![],
            done: done.iter().collect(),
            labels: vec![],
            stable: done.iter().collect(),
        };
        assert!(b.approx_bytes() * 50 < snapshot.approx_bytes());
    }

    #[test]
    fn envelope_snapshot_view_expands_batched_summaries() {
        let id0 = OpId::new(ClientId(0), 0);
        let id1 = OpId::new(ClientId(0), 1);
        let b: BatchedGossipMsg<()> = BatchedGossipMsg {
            from: ReplicaId(2),
            incarnation: 0,
            acked: 0,
            rcvd: vec![],
            done: IdSummary::from_ids([id0, id1]),
            labels: vec![(id0, Label::new(1, ReplicaId(2)))],
            stable: IdSummary::from_ids([id0]),
            known: IdSummary::new(),
        };
        let snap = GossipEnvelope::Batched(b).to_snapshot();
        assert_eq!(snap.from, ReplicaId(2));
        assert_eq!(snap.done, vec![id0, id1]);
        assert_eq!(snap.stable, vec![id0]);
        assert_eq!(snap.labels.len(), 1);
    }
}

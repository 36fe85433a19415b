//! The replica automaton (paper Fig. 7) with the Section 10 optimizations.
//!
//! A replica is a *sans-IO* state machine: inputs are requests, gossip
//! messages, and "make a gossip message now" prompts; outputs are response
//! effects. Both the discrete-event simulator (`esds-harness`) and the
//! threaded runtime (`esds-runtime`) drive this same type, so properties
//! verified under simulation transfer to the deployment.
//!
//! ## The replica state, in the paper's vocabulary (§6.3)
//!
//! Every replica `r` maintains five components; understanding their roles
//! is most of understanding the algorithm:
//!
//! * **`pending_r`** — identifiers of requests received directly from
//!   front ends and not yet answered. Only entries of `pending_r` ever
//!   generate responses; operations learned through gossip are applied
//!   but answered by whichever replica received them firsthand.
//!
//! * **`rcvd_r`** — every operation descriptor `r` has *received*, whether
//!   directly or via gossip. This is the replica's knowledge of the
//!   operation set `O`; it only grows (until §10.2 compaction purges the
//!   descriptors — never the knowledge — of globally-finished
//!   operations).
//!
//! * **`done_r[i]`** (one set per replica `i`) — the operations `r`
//!   *knows* have been **done** at `i`, i.e. `i` has performed `do_it`
//!   for them: assigned a label and scheduled them into its local order.
//!   `done_r[r]` is ground truth about `r` itself; for `i ≠ r` the set is
//!   (possibly stale) knowledge learned from gossip, always a subset of
//!   the truth (Invariant 7.x monotonicity). An operation may only be
//!   done after every operation in its `prev` set is done (the
//!   client-specified constraints, §2.3).
//!
//! * **`stable_r[i]`** — the operations `r` knows are **stable** at `i`.
//!   An operation is stable at `r` when `r` knows it is done at *every*
//!   replica: `stable_r[r] = ∩ᵢ done_r[i]` (Invariant 7.2). Once stable
//!   at `r`, its label can never shrink again — no replica will relabel
//!   it — so the prefix of the local order up to the largest stable label
//!   is frozen (*solid*, §10.1), which is what memoization exploits. The
//!   intersection `∩ᵢ stable_r[i]` ("stable everywhere") is the gate for
//!   **strict** responses: a strict operation answers only when `r` knows
//!   every replica has it stable, making the response consistent with the
//!   eventual total order (Theorem 5.8).
//!
//! * **`label_r`** — the minimum label seen per operation (`∞` if
//!   unlabeled). Labels come from per-replica well-ordered label sets
//!   `𝓛ᵣ` (§6.3); gossip merges them by minimum, so all replicas converge
//!   to the system-wide minimum label per operation, and sorting by that
//!   minimum label *is* the eventual total order.
//!
//! Gossip (`send_{rr'}` / `receive_{r'r}`, Fig. 7) exchanges the four
//! knowledge components `(R, D, L, S)` = (`rcvd`, `done[r]`, `label`,
//! `stable[r]`); receiving merges by union/minimum, which is commutative
//! and idempotent — duplicated or reordered gossip is harmless.
//!
//! The paper's fine-grained actions (`do_it`, `send_response`) are run to
//! fixpoint inside each event handler; this batching is a refinement that
//! the conformance observer in `esds-harness` checks against `ESDS-II`.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use esds_core::{
    ClientId, Digraph, IdSummary, Label, LabelGenerator, LabelMap, OpDescriptor, OpId, ReplicaId,
    SerialDataType,
};

use crate::messages::{BatchedGossipMsg, GossipEnvelope, GossipMsg, ResponseMsg};

/// Which gossip construction [`Replica::make_gossip`] /
/// [`Replica::poll_gossip`] uses (paper §10.4).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum GossipStrategy {
    /// The paper's algorithm: every gossip message carries the full
    /// `(R, D, L, S)` snapshot. Kept as the ablation baseline and for the
    /// model checker.
    Full,
    /// §10.2 + §10.4 combined, pruned by what the peer has
    /// **acknowledged** (the multipart-timestamp acknowledgements of lazy
    /// replication): accumulate
    /// [`batch_interval`](ReplicaConfig::batch_interval) gossip ticks into
    /// one self-contained [`BatchedGossipMsg`] per peer carrying every
    /// descriptor the peer's latest `known` handshake does not cover, the
    /// label of every operation the peer has not reported stable, and
    /// complete `done`/`stable`/`known` [`IdSummary`]s. Nothing about what
    /// was *sent* is remembered, so a lost, duplicated or reordered batch
    /// is repaired by the next one, and the sender incarnation lets a
    /// restarted peer's smaller handshake replace its pre-crash acks.
    /// Steady-state cost is O(unacknowledged + #clients) per exchange
    /// instead of O(history). Driven through [`Replica::poll_gossip`];
    /// [`Replica::make_gossip`] still builds a full snapshot.
    #[default]
    Batched,
}

/// How response values are produced (paper §10.1 / §10.3).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ValueStrategy {
    /// Recompute along the local label order on demand, starting from the
    /// memoized prefix when available (`ESDS-Alg` / `ESDS-Alg′`).
    #[default]
    Recompute,
    /// The `Commute` automaton of Fig. 11: maintain a *current state* `cs_r`
    /// updated as each operation is done (in a CSC-consistent order) and fix
    /// every value at do-time. Sound only for `SafeUsers` workloads that
    /// CSC-order all non-commuting operations (Lemma 10.6); see
    /// [`crate::commute`].
    EagerCommute,
}

/// Configuration of one replica.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReplicaConfig {
    /// Enable the §10.1 memoization of the solid prefix (`ESDS-Alg′`).
    pub memoize: bool,
    /// Value production strategy (§10.3).
    pub value_strategy: ValueStrategy,
    /// Gossip construction strategy (§10.4).
    pub gossip: GossipStrategy,
    /// Prune from full-snapshot gossip to peer `p` the `R`/`D`/`L` entries
    /// of operations `r` knows are stable at `p` (§10.2/§10.4 memory &
    /// message GC). The `S` component is never pruned (peers still count
    /// stability votes). Incompatible with crash recovery: the pruning
    /// trusts stability knowledge a crashed peer has lost
    /// ([`Replica::recover`] refuses it).
    pub gc_gossip: bool,
    /// Attach to each response a witness: the local label order up to the
    /// answered operation (used by the `esds-spec` checkers; costs memory).
    pub record_witness: bool,
    /// How many gossip ticks [`Replica::poll_gossip`] accumulates per peer
    /// before emitting one batched exchange (only consulted under
    /// [`GossipStrategy::Batched`]; `1` = exchange on every tick, `k`
    /// trades response-time for 1/k the messages). Values below 1 are
    /// treated as 1.
    pub batch_interval: u32,
    /// Track a per-handler [`WalDelta`] (ids admitted to `rcvd`, label
    /// minima that changed) for a write-ahead log. Drivers drain it with
    /// [`Replica::take_wal_delta`] after every mutating input and hand it
    /// to a [`crate::Persistence`] backend *before* releasing the
    /// handler's effects — the sync-before-release discipline that makes
    /// §9.3 recovery from the log sound.
    pub durable: bool,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            memoize: true,
            value_strategy: ValueStrategy::Recompute,
            gossip: GossipStrategy::Batched,
            gc_gossip: false,
            record_witness: false,
            batch_interval: 1,
            durable: false,
        }
    }
}

impl ReplicaConfig {
    /// The paper's base algorithm, no optimizations (used as the ablation
    /// baseline).
    pub fn basic() -> Self {
        ReplicaConfig {
            memoize: false,
            ..Self::default()
        }
    }

    /// The `Commute` automaton of Fig. 11 (§10.3): eager values plus
    /// memoization (strict responses use the memoized, eventual-order
    /// value). Only sound for `SafeUsers` workloads.
    pub fn commute() -> Self {
        ReplicaConfig {
            value_strategy: ValueStrategy::EagerCommute,
            ..Self::default()
        }
    }

    /// Enables witness recording (checker support).
    #[must_use]
    pub fn with_witness(mut self) -> Self {
        self.record_witness = true;
        self
    }

    /// Sets the gossip strategy.
    #[must_use]
    pub fn with_gossip(mut self, g: GossipStrategy) -> Self {
        self.gossip = g;
        self
    }

    /// Enables batched gossip with one exchange per `every` gossip ticks.
    #[must_use]
    pub fn with_batched(mut self, every: u32) -> Self {
        self.gossip = GossipStrategy::Batched;
        self.batch_interval = every.max(1);
        self
    }

    /// Enables gossip GC.
    #[must_use]
    pub fn with_gc(mut self) -> Self {
        self.gc_gossip = true;
        self
    }

    /// Enables write-ahead-log delta tracking (see
    /// [`durable`](ReplicaConfig::durable)).
    #[must_use]
    pub fn with_durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

/// What one event handler added to the replica's durable knowledge:
/// the identifiers newly admitted to `rcvd` and the label minima that
/// changed (by local `do_it` or by gossip merge). Drained by
/// [`Replica::take_wal_delta`]; a write-ahead log appends exactly these
/// as records, so replaying the log re-derives every externally-released
/// fact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalDelta {
    /// Ids admitted to `rcvd` since the last drain, in admission order.
    /// The descriptors themselves are still in [`Replica::rcvd`] at drain
    /// time (§10.2 compaction only runs under the driver's control,
    /// never inside a handler).
    pub admitted: Vec<OpId>,
    /// Per-op label minima that decreased since the last drain (only the
    /// final, lowest value per op is kept — the log needs the minimum,
    /// not the intermediate merge steps).
    pub labels: BTreeMap<OpId, Label>,
}

impl WalDelta {
    /// True when the handler changed nothing durable.
    pub fn is_empty(&self) -> bool {
        self.admitted.is_empty() && self.labels.is_empty()
    }
}

/// One operation of the snapshot prefix in a [`RestoreImage`]: its final
/// position (label), fixed value (Lemma 10.2), and the stability
/// knowledge that held when the snapshot was cut.
#[derive(Clone, Debug)]
pub struct PrefixEntry<T: SerialDataType> {
    /// The operation.
    pub id: OpId,
    /// Its frozen system-minimum label.
    pub label: Label,
    /// Its memoized value (`mv_r`).
    pub value: T::Value,
    /// Stable at the snapshotting replica (⇒ done at every replica,
    /// Invariant 7.2 — both facts are monotone, so restoring them is
    /// sound even though the knowledge is stale).
    pub stable_here: bool,
    /// Known stable at *every* replica (the strict-response gate).
    pub stable_everywhere: bool,
}

/// Everything [`Replica::restore`] needs to rebuild a replica from disk:
/// the snapshot's prefix image plus the write-ahead log's unstable
/// suffix. Produced by a persistence layer (e.g. `esds-store`) from a
/// snapshot + log replay.
#[derive(Clone, Debug)]
pub struct RestoreImage<T: SerialDataType> {
    /// The replica's identity.
    pub id: ReplicaId,
    /// The incarnation the restored replica gossips under: it must exceed
    /// that of every earlier incarnation which released anything, so
    /// peers drop the acknowledgements those incarnations sent.
    pub incarnation: u64,
    /// Label-counter floor: at least one past every label this replica
    /// ever released, so fresh labels never collide with pre-crash ones.
    pub next_counter: u64,
    /// The memoized prefix at the snapshot fence, in strict label order.
    pub prefix: Vec<PrefixEntry<T>>,
    /// `ms_r`: the state after applying the prefix.
    pub state: T::State,
    /// Descriptors of logged operations past the fence (the unstable
    /// suffix); they are re-admitted and re-done with their pre-crash
    /// labels once recovery closes.
    pub suffix_rcvd: Vec<OpDescriptor<T::Operator>>,
    /// Logged label minima of suffix operations; they seed
    /// `persisted_labels` so the recovered replica neither re-mints nor
    /// contradicts a label it already released (§9.3).
    pub suffix_labels: Vec<(OpId, Label)>,
}

/// An output of the replica: send a response message to a client's front
/// end.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RespondEffect<V> {
    /// Destination front end.
    pub client: ClientId,
    /// The response message.
    pub msg: ResponseMsg<V>,
}

/// Counters for the experiments (the memoization and gossip ablations
/// in `crates/bench`).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ReplicaStats {
    /// `do_it` actions performed.
    pub do_its: u64,
    /// Responses computed.
    pub responses: u64,
    /// Data-type `apply` calls spent computing response values (the cost
    /// memoization attacks; excludes applies spent building memo state).
    pub response_applies: u64,
    /// Data-type `apply` calls spent advancing the memo prefix.
    pub memo_applies: u64,
    /// Data-type `apply` calls spent maintaining the eager current state
    /// (`cs_r` of Fig. 11; §10.3 mode only).
    pub eager_applies: u64,
    /// Gossip messages received.
    pub gossip_in: u64,
    /// Gossip messages produced.
    pub gossip_out: u64,
    /// Total approximate bytes of produced gossip.
    pub gossip_out_bytes: u64,
    /// Descriptors purged by §10.2 local compaction ([`Replica::compact`]).
    pub compacted: u64,
}

/// What a crashed replica retains in stable storage (paper §9.3): its label
/// counter, its incarnation, and the locally-generated labels that were
/// system minima.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryStub {
    /// The replica's identity.
    pub id: ReplicaId,
    /// The incarnation that crashed; [`Replica::recover`] starts the next.
    pub incarnation: u64,
    /// Label-counter floor, so fresh labels never collide with pre-crash
    /// ones.
    pub next_counter: u64,
    /// Locally-generated labels that were the replica's current minima:
    /// without these, a recovered replica could assign a *larger* label to
    /// an operation whose system-wide minimum it previously held, changing
    /// the eventual total order retroactively.
    pub local_min_labels: Vec<(OpId, Label)>,
}

/// Memoization state (paper §10.1, `ESDS-Alg′`): the *solid* prefix of the
/// local label order — operations at or below the largest stable label —
/// whose values and cumulative state never change (Lemma 10.2).
#[derive(Clone, Debug)]
struct Memo<T: SerialDataType> {
    /// Ids in memoized order (= label order restricted to the prefix).
    order: Vec<OpId>,
    /// Label of the last memoized operation.
    last_label: Option<Label>,
    /// `ms_r`: state after applying the memoized prefix.
    state: T::State,
    /// `mv_r`: fixed values of memoized operations.
    values: BTreeMap<OpId, T::Value>,
}

/// §10.3 eager-value state (Fig. 11): the current state `cs_r` and the
/// do-time values `val_r`.
#[derive(Clone, Debug)]
struct EagerState<T: SerialDataType> {
    cs: T::State,
    vals: BTreeMap<OpId, T::Value>,
}

/// Per-peer batched-gossip state (§10.2/§10.4): the peer's
/// acknowledgements, and what of its knowledge we have already folded in.
/// Nothing records what was *sent*, so no loss can strand a delta.
#[derive(Clone, Debug, Default)]
struct BatchState {
    /// The peer incarnation the acknowledgements below came from.
    incarnation: u64,
    /// Union of that incarnation's `known` handshakes: the peer holds
    /// these descriptors, so they are never shipped to it.
    known: IdSummary,
    /// Union of that incarnation's `stable` summaries: the peer holds
    /// these operations' frozen system-minimum labels (Invariant 7.19),
    /// so their labels are never shipped to it.
    stable: IdSummary,
    /// The peer's `done`/`stable` summaries already folded into our state;
    /// incoming summaries are diffed against these so receives cost
    /// O(delta), not O(history). They record facts, which outlive the
    /// peer's restarts.
    seen_done: IdSummary,
    seen_stable: IdSummary,
    /// Gossip ticks accumulated since the last batched exchange.
    ticks: u32,
}

/// The replica automaton of paper Fig. 7 (see module docs).
#[derive(Clone, Debug)]
pub struct Replica<T: SerialDataType> {
    dt: T,
    id: ReplicaId,
    n: usize,
    config: ReplicaConfig,

    pending: BTreeSet<OpId>,
    rcvd: BTreeMap<OpId, OpDescriptor<T::Operator>>,
    done: Vec<BTreeSet<OpId>>,
    stable: Vec<BTreeSet<OpId>>,
    labels: LabelMap,
    gen: LabelGenerator,

    /// Count of replicas `i` with `x ∈ done[i]` — when it reaches `n` the
    /// operation is done everywhere `r` knows of, i.e. stable at `r`
    /// (Invariant 7.2).
    done_at_count: BTreeMap<OpId, u32>,
    /// Count of replicas `i` with `x ∈ stable[i]`.
    stable_at_count: BTreeMap<OpId, u32>,
    /// `∩ᵢ stable_r[i]` — the strict-response gate.
    stable_everywhere: BTreeSet<OpId>,

    /// Dependency bookkeeping: ops blocked on a prev not yet done, and the
    /// reverse map from a missing prev to its dependents.
    blocked_on: BTreeMap<OpId, usize>,
    blockers: BTreeMap<OpId, Vec<OpId>>,
    ready: Vec<OpId>,

    memo: Option<Memo<T>>,
    /// §10.3 state: `cs_r` (current state over all done ops in do-order)
    /// and `val_r` (values fixed at do-time).
    eager: Option<EagerState<T>>,
    /// Ops newly done at this replica and not yet folded into `cs_r`.
    eager_backlog: Vec<OpId>,
    /// Ops newly done at this replica since the last [`Replica::take_newly_done`]
    /// drain (harness instrumentation for the Lemma 9.2 experiments).
    newly_done: Vec<OpId>,
    /// Per-peer batched-gossip state (`GossipStrategy::Batched` only).
    batch: BTreeMap<ReplicaId, BatchState>,
    /// Summary of every identifier ever admitted to `rcvd` (never pruned
    /// by §10.2 compaction — it encodes *knowledge*, not storage). This is
    /// the `known` handshake batched gossip advertises.
    rcvd_summary: IdSummary,
    /// `done[r]` as a summary, maintained incrementally for O(1)-amortized
    /// batched-gossip construction.
    done_here_summary: IdSummary,
    /// `stable[r]` as a summary.
    stable_here_summary: IdSummary,
    /// The largest label of an operation stable here: the §10.1 memo
    /// boundary. Stable labels are frozen (Invariant 7.19), so it only
    /// moves when an operation becomes stable.
    stable_label_max: Option<Label>,
    /// Which life of this replica is running: 0 when created, one more
    /// at each [`Replica::recover`]. Batched gossip carries it so peers
    /// replace a restarted replica's pre-crash acknowledgements.
    incarnation: u64,

    /// Pending write-ahead-log delta (`Some` iff
    /// [`ReplicaConfig::durable`]); see [`WalDelta`].
    wal_delta: Option<WalDelta>,
    /// Labels restored from stable storage after a crash (see
    /// [`RecoveryStub`]); consulted by `do_it`.
    persisted_labels: BTreeMap<OpId, Label>,
    /// Peers not yet heard from since recovery; `Some` = still recovering
    /// (the replica neither labels nor responds until this empties).
    recovering: Option<BTreeSet<ReplicaId>>,

    stats: ReplicaStats,
}

impl<T: SerialDataType> Replica<T> {
    /// Creates replica `id` of a service with `n` replicas (ids `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `0..n` or `n == 0`.
    pub fn new(dt: T, id: ReplicaId, n: usize, config: ReplicaConfig) -> Self {
        assert!(n > 0, "a service needs at least one replica");
        assert!((id.0 as usize) < n, "replica id out of range");
        if config.value_strategy == ValueStrategy::EagerCommute {
            assert!(
                config.memoize,
                "eager-commute mode needs memoization for strict responses (Fig. 11)"
            );
        }
        let memo = config.memoize.then(|| Memo {
            order: Vec::new(),
            last_label: None,
            state: dt.initial_state(),
            values: BTreeMap::new(),
        });
        let eager = (config.value_strategy == ValueStrategy::EagerCommute).then(|| EagerState {
            cs: dt.initial_state(),
            vals: BTreeMap::new(),
        });
        Replica {
            id,
            n,
            config,
            pending: BTreeSet::new(),
            rcvd: BTreeMap::new(),
            done: vec![BTreeSet::new(); n],
            stable: vec![BTreeSet::new(); n],
            labels: LabelMap::new(),
            gen: LabelGenerator::new(id),
            done_at_count: BTreeMap::new(),
            stable_at_count: BTreeMap::new(),
            stable_everywhere: BTreeSet::new(),
            blocked_on: BTreeMap::new(),
            blockers: BTreeMap::new(),
            ready: Vec::new(),
            memo,
            eager,
            eager_backlog: Vec::new(),
            newly_done: Vec::new(),
            batch: BTreeMap::new(),
            rcvd_summary: IdSummary::new(),
            done_here_summary: IdSummary::new(),
            stable_here_summary: IdSummary::new(),
            stable_label_max: None,
            incarnation: 0,
            wal_delta: config.durable.then(WalDelta::default),
            persisted_labels: BTreeMap::new(),
            recovering: None,
            dt,
            stats: ReplicaStats::default(),
        }
    }

    /// Recreates a replica from its stable-storage stub after a crash
    /// (paper §9.3). The replica stays passive — no labeling, no responses,
    /// no gossip content — until it has received gossip from every peer.
    pub fn recover(dt: T, stub: RecoveryStub, n: usize, config: ReplicaConfig) -> Self {
        assert!(
            !config.gc_gossip,
            "crash recovery requires ungarbage-collected gossip (gc_gossip trusts stability a crash erased)"
        );
        let mut r = Replica::new(dt, stub.id, n, config);
        r.incarnation = stub.incarnation + 1;
        r.gen = LabelGenerator::from_counter(stub.id, stub.next_counter);
        r.persisted_labels = stub.local_min_labels.into_iter().collect();
        let peers: BTreeSet<ReplicaId> = (0..n as u32)
            .map(ReplicaId)
            .filter(|p| *p != stub.id)
            .collect();
        r.recovering = if peers.is_empty() { None } else { Some(peers) };
        r
    }

    /// Rebuilds a replica from a durable snapshot + log image after a
    /// crash — the full-persistence variant of [`Replica::recover`].
    ///
    /// The prefix is installed as the §10.1 memo (order, values, state)
    /// with its recorded stability knowledge; prefix descriptors are
    /// *not* restored (the snapshot materialized their effects — this is
    /// exactly the post-[`Replica::compact`] shape, which every code path
    /// already tolerates). Suffix descriptors are re-admitted, and suffix
    /// labels seed `persisted_labels` so `do_it` re-assigns the pre-crash
    /// minima instead of minting fresh labels. Like
    /// [`Replica::recover`], the result stays passive until it has heard
    /// gossip from every peer and every operation it labeled pre-crash is
    /// re-received (here: immediately, since the log holds the suffix
    /// descriptors).
    ///
    /// # Panics
    ///
    /// Panics if `config` disables memoization, selects
    /// [`ValueStrategy::EagerCommute`], or enables `gc_gossip`; if the
    /// prefix is not in strictly increasing label order; or on the
    /// [`Replica::new`] conditions.
    pub fn restore(dt: T, img: RestoreImage<T>, n: usize, config: ReplicaConfig) -> Self {
        assert!(
            config.memoize && config.value_strategy == ValueStrategy::Recompute,
            "restore rebuilds the §10.1 memo prefix: it requires memoize + Recompute"
        );
        assert!(
            !config.gc_gossip,
            "crash recovery requires ungarbage-collected gossip (gc_gossip trusts stability a crash erased)"
        );
        let mut r = Replica::new(dt, img.id, n, config);
        r.incarnation = img.incarnation;
        r.gen = LabelGenerator::from_counter(img.id, img.next_counter);
        let here = r.idx(img.id);
        // Labels first (the done marks debug-assert Invariant 7.5).
        let mut prev: Option<Label> = None;
        for e in &img.prefix {
            assert!(
                prev.is_none_or(|p| p < e.label),
                "snapshot prefix must be in strictly increasing label order"
            );
            prev = Some(e.label);
            r.labels.merge_min(e.id, e.label);
        }
        for e in &img.prefix {
            if e.stable_here {
                // Stable-at-r ⇒ done at every replica (Invariant 7.2).
                for i in 0..n {
                    r.mark_done_at(e.id, i);
                }
            } else {
                r.mark_done_at(e.id, here);
            }
            // Knowledge outlives storage (§10.2): the handshake must keep
            // covering prefix ids even though their descriptors are gone.
            r.rcvd_summary.insert(e.id);
        }
        for e in &img.prefix {
            if e.stable_everywhere {
                for i in 0..n {
                    r.mark_stable_at(e.id, i);
                }
            }
        }
        let memo = r.memo.as_mut().expect("memoize asserted above");
        memo.order = img.prefix.iter().map(|e| e.id).collect();
        memo.last_label = img.prefix.last().map(|e| e.label);
        memo.values = img.prefix.iter().map(|e| (e.id, e.value.clone())).collect();
        memo.state = img.state;
        let prefix_ids: BTreeSet<OpId> = img.prefix.iter().map(|e| e.id).collect();
        for d in img.suffix_rcvd {
            r.admit(d);
        }
        // Prefix labels are frozen (Lemma 10.2) — a logged label for a
        // prefix op is a stale duplicate, not a clamp to keep.
        r.persisted_labels = img
            .suffix_labels
            .into_iter()
            .filter(|(id, _)| !prefix_ids.contains(id))
            .collect();
        // Suffix operations were done here before the crash, so a fresh
        // label must exceed theirs (do_it's precondition) even while they
        // wait, unlabeled, for the recovery gate to re-do them.
        for l in r.persisted_labels.values() {
            r.gen.observe(*l);
        }
        // The restore itself is already durable — drop its tracking.
        r.newly_done.clear();
        if let Some(w) = &mut r.wal_delta {
            *w = WalDelta::default();
        }
        let peers: BTreeSet<ReplicaId> = (0..n as u32)
            .map(ReplicaId)
            .filter(|p| *p != img.id)
            .collect();
        r.recovering = (!peers.is_empty()).then_some(peers);
        r
    }

    /// Simulates a crash with volatile memory: returns the stable-storage
    /// stub, consuming the replica.
    pub fn crash(self) -> RecoveryStub {
        let local_min_labels = self
            .labels
            .iter()
            .filter(|(_, l)| l.replica == self.id)
            .collect();
        RecoveryStub {
            id: self.id,
            incarnation: self.incarnation,
            next_counter: self.gen.next_counter(),
            local_min_labels,
        }
    }

    // ------------------------------------------------------------------
    // Accessors (used by checkers, experiments, and tests)
    // ------------------------------------------------------------------

    /// This replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Number of replicas in the service.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration.
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// `pending_r`: requests not yet answered.
    pub fn pending(&self) -> &BTreeSet<OpId> {
        &self.pending
    }

    /// `rcvd_r`: all received operation descriptors.
    pub fn rcvd(&self) -> &BTreeMap<OpId, OpDescriptor<T::Operator>> {
        &self.rcvd
    }

    /// `done_r[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica of this service.
    pub fn done(&self, i: ReplicaId) -> &BTreeSet<OpId> {
        &self.done[self.idx(i)]
    }

    /// `done_r[r]` — operations done at this replica.
    pub fn done_here(&self) -> &BTreeSet<OpId> {
        &self.done[self.idx(self.id)]
    }

    /// `stable_r[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica of this service.
    pub fn stable(&self, i: ReplicaId) -> &BTreeSet<OpId> {
        &self.stable[self.idx(i)]
    }

    /// `stable_r[r]` — operations stable at this replica.
    pub fn stable_here(&self) -> &BTreeSet<OpId> {
        &self.stable[self.idx(self.id)]
    }

    /// `∩ᵢ stable_r[i]` — operations this replica knows are stable at every
    /// replica (the strict-response gate).
    pub fn stable_everywhere(&self) -> &BTreeSet<OpId> {
        &self.stable_everywhere
    }

    /// The label function `label_r`.
    pub fn labels(&self) -> &LabelMap {
        &self.labels
    }

    /// The local total order on done operations (ids sorted by label) —
    /// `lc_r` restricted to `done_r[r]` (Invariant 7.15).
    pub fn local_order(&self) -> Vec<OpId> {
        self.labels.ids_in_label_order()
    }

    /// Which life of this replica is running (see [`RecoveryStub`]).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Whether the replica is still waiting for post-recovery gossip.
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// Statistics counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Drains and returns the operations that became done at this replica
    /// since the last drain (harness instrumentation: the Lemma 9.2
    /// stabilization-time experiment watches these).
    pub fn take_newly_done(&mut self) -> Vec<OpId> {
        std::mem::take(&mut self.newly_done)
    }

    /// Drains the pending write-ahead-log delta (empty unless
    /// [`ReplicaConfig::durable`] is set). Drivers call this after every
    /// mutating input and persist the result before releasing the
    /// handler's effects.
    pub fn take_wal_delta(&mut self) -> WalDelta {
        self.wal_delta
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The label counter the next locally-minted label will draw from —
    /// what a snapshot records so a recovered replica never re-mints a
    /// released label (§9.3).
    pub fn next_label_counter(&self) -> u64 {
        self.gen.next_counter()
    }

    /// The ids of the memoized prefix, in order (empty when memoization is
    /// off). Exposed for the §10.1 invariant checks.
    pub fn memo_order(&self) -> &[OpId] {
        self.memo.as_ref().map_or(&[], |m| &m.order)
    }

    /// The memoized state `ms_r` (None when memoization is off).
    pub fn memo_state(&self) -> Option<&T::State> {
        self.memo.as_ref().map(|m| &m.state)
    }

    /// The memoized value of `id`, if memoized.
    pub fn memo_value(&self, id: OpId) -> Option<&T::Value> {
        self.memo.as_ref().and_then(|m| m.values.get(&id))
    }

    /// The §10.3 do-time value of `id` (eager-commute mode only).
    pub fn eager_value(&self, id: OpId) -> Option<&T::Value> {
        self.eager.as_ref().and_then(|e| e.vals.get(&id))
    }

    /// The §10.3 current state `cs_r` (eager-commute mode only).
    pub fn eager_state(&self) -> Option<&T::State> {
        self.eager.as_ref().map(|e| &e.cs)
    }

    /// The state after applying **all** currently-done operations in local
    /// label order — the replica's current view of the object. Used by
    /// convergence checks; linear in the number of unmemoized operations.
    pub fn current_state(&self) -> T::State {
        let (start_state, start_label) = match &self.memo {
            Some(m) => (m.state.clone(), m.last_label),
            None => (self.dt.initial_state(), None),
        };
        let mut s = start_state;
        let mut cursor = start_label;
        while let Some((l, id)) = self.labels.next_after(cursor) {
            let d = self.rcvd.get(&id).expect("done op has descriptor");
            s = self.dt.apply(&s, &d.op).0;
            cursor = Some(l);
        }
        s
    }

    fn idx(&self, i: ReplicaId) -> usize {
        let k = i.0 as usize;
        assert!(k < self.n, "unknown replica {i}");
        k
    }

    // ------------------------------------------------------------------
    // Input actions
    // ------------------------------------------------------------------

    /// Handles `receive_cr(⟨"request", x⟩)`: records the request as pending
    /// (even if previously received — the front end may legitimately retry,
    /// paper footnote 4) and runs the internal actions to fixpoint.
    pub fn on_request(&mut self, desc: OpDescriptor<T::Operator>) -> Vec<RespondEffect<T::Value>> {
        self.pending.insert(desc.id);
        self.admit(desc);
        self.step()
    }

    /// Handles `receive_{r'r}(⟨"gossip", R, D, L, S⟩)` (paper Fig. 7) and
    /// runs the internal actions to fixpoint.
    pub fn on_gossip(&mut self, g: GossipMsg<T::Operator>) -> Vec<RespondEffect<T::Value>> {
        self.stats.gossip_in += 1;
        let GossipMsg {
            from,
            rcvd,
            done,
            labels,
            stable,
        } = g;
        // rcvd ← rcvd ∪ R.
        for d in rcvd {
            self.admit(d);
        }
        // label_r ← min(label_r, L) — before the done-set updates so every
        // newly-done operation is labeled (Invariant 7.5).
        for (id, l) in labels {
            self.merge_label(id, l);
        }
        self.fold_knowledge(from, &done, &stable);
        self.step()
    }

    /// `label_r(id) ← min(label_r(id), l)`, never above a label this
    /// replica released before a crash (§9.3).
    fn merge_label(&mut self, id: OpId, l: Label) {
        let l = match self.persisted_labels.get(&id) {
            Some(p) if *p < l => *p,
            _ => l,
        };
        if self.labels.merge_min(id, l) {
            self.record_label(id, l);
        }
    }

    /// Folds a gossip message's `D`/`S` knowledge from `from`, then counts
    /// `from` as heard from by the §9.3 recovery gate.
    fn fold_knowledge(&mut self, from: ReplicaId, done: &[OpId], stable: &[OpId]) {
        let from_idx = self.idx(from);
        let here = self.idx(self.id);
        // done_r[r'] ∪= D ∪ S ; done_r[r] ∪= D ∪ S ; done_r[i] ∪= S ∀i.
        for x in done.iter().chain(stable) {
            self.mark_done_at(*x, from_idx);
            self.mark_done_at(*x, here);
        }
        for x in stable {
            for i in 0..self.n {
                self.mark_done_at(*x, i);
            }
        }
        // stable_r[r'] ∪= S ; stable_r[r] ∪= S (the ∩ᵢ done_r[i] part is
        // maintained incrementally by mark_done_at).
        for x in stable {
            self.mark_stable_at(*x, from_idx);
            self.mark_stable_at(*x, here);
        }

        if let Some(waiting) = &mut self.recovering {
            waiting.remove(&from);
            // Rejoining also requires every operation this replica had
            // labeled pre-crash to be back in `rcvd`: a persisted
            // minimum label may order its operation *before* ops the
            // group has since stabilized, so reporting done/stable
            // knowledge while such an operation is still missing would
            // let strict responses be answered against an order the
            // relearned label later contradicts. Descriptors return via
            // peer gossip or front-end retransmission; until then the
            // replica stays passive.
            if waiting.is_empty()
                && self
                    .persisted_labels
                    .keys()
                    .all(|id| self.rcvd.contains_key(id))
            {
                self.recovering = None;
            }
        }
    }

    /// Builds the full-snapshot gossip message for `peer` (`send_{rr'}` in
    /// Fig. 7), pruned only by [`gc_gossip`](ReplicaConfig::gc_gossip). A
    /// recovering replica gossips an empty message (it has nothing
    /// trustworthy to say yet, but peers learn it is alive). This is the
    /// [`GossipStrategy::Full`] message whatever the configured strategy;
    /// [`Replica::poll_gossip`] applies the strategy.
    pub fn make_gossip(&mut self, peer: ReplicaId) -> GossipMsg<T::Operator> {
        let here = self.idx(self.id);
        let msg = if self.recovering.is_some() {
            GossipMsg {
                from: self.id,
                rcvd: Vec::new(),
                done: Vec::new(),
                labels: Vec::new(),
                stable: Vec::new(),
            }
        } else {
            let peer_stable = &self.stable[self.idx(peer)];
            let skip = |id: &OpId| -> bool { self.config.gc_gossip && peer_stable.contains(id) };
            GossipMsg {
                from: self.id,
                rcvd: self
                    .rcvd
                    .values()
                    .filter(|d| !skip(&d.id))
                    .cloned()
                    .collect(),
                done: self.done[here]
                    .iter()
                    .filter(|x| !skip(x))
                    .copied()
                    .collect(),
                labels: self.labels.iter().filter(|(id, _)| !skip(id)).collect(),
                // S is never pruned: peers still need stability votes.
                stable: self.stable[here].iter().copied().collect(),
            }
        };
        self.stats.gossip_out += 1;
        self.stats.gossip_out_bytes += msg.approx_bytes() as u64;
        msg
    }

    /// Forgets `peer`'s acknowledgements, so the next batch to it carries
    /// everything again. Never needed for correctness — batches are
    /// pruned only by what the peer acknowledged, and a restarted peer's
    /// new incarnation replaces its old acknowledgements — but a
    /// transport may call it when it knows the peer lost its state.
    pub fn reset_watermark(&mut self, peer: ReplicaId) {
        self.batch.remove(&peer);
    }

    /// Produces the gossip message for `peer` under the configured
    /// strategy's **pacing**: `Full` emits a snapshot on every call;
    /// `Batched` returns `None` until
    /// [`batch_interval`](ReplicaConfig::batch_interval) ticks have
    /// accumulated for this peer, then one self-contained
    /// [`BatchedGossipMsg`]. Transports should call this once per peer per
    /// gossip tick and send only `Some` results.
    pub fn poll_gossip(&mut self, peer: ReplicaId) -> Option<GossipEnvelope<T::Operator>> {
        if self.config.gossip == GossipStrategy::Full {
            return Some(GossipEnvelope::Snapshot(self.make_gossip(peer)));
        }
        let interval = self.config.batch_interval.max(1);
        let bs = self.batch.entry(peer).or_default();
        bs.ticks += 1;
        if bs.ticks < interval {
            return None;
        }
        bs.ticks = 0;
        let msg = self.make_batched_gossip(peer);
        self.stats.gossip_out += 1;
        self.stats.gossip_out_bytes += msg.approx_bytes() as u64;
        Some(GossipEnvelope::Batched(msg))
    }

    /// Builds one batched exchange for `peer` (see
    /// [`GossipStrategy::Batched`]). `R` and `L` come from per-client range
    /// scans of `rcvd` and the label map, starting at the watermarks of the
    /// peer's acknowledged `known` and `stable` summaries, so construction
    /// costs O(unacknowledged + #clients), not O(history). The batch is
    /// self-contained: each id in its `done`/`stable` summaries has its
    /// descriptor and label in the batch unless the peer acknowledged
    /// holding them.
    ///
    /// A recovering replica sends only its handshake (`known` and its
    /// incarnation): it has no trustworthy knowledge to report yet, but
    /// peers need the handshake to stop pruning against its pre-crash
    /// acknowledgements. Unlike [`Replica::poll_gossip`] this ignores
    /// pacing and does not touch the stats counters.
    pub fn make_batched_gossip(&self, peer: ReplicaId) -> BatchedGossipMsg<T::Operator> {
        let unheard = BatchState::default();
        let acks = self.batch.get(&peer).unwrap_or(&unheard);
        let mut msg = BatchedGossipMsg {
            from: self.id,
            incarnation: self.incarnation,
            acked: acks.incarnation,
            rcvd: Vec::new(),
            done: IdSummary::new(),
            labels: Vec::new(),
            stable: IdSummary::new(),
            known: self.rcvd_summary.clone(),
        };
        if self.recovering.is_none() {
            msg.rcvd = acks
                .known
                .missing_from(&self.rcvd)
                .into_iter()
                .map(|(_, d)| d.clone())
                .collect();
            msg.labels = self.labels.missing_from(&acks.stable);
            msg.done = self.done_here_summary.clone();
            msg.stable = self.stable_here_summary.clone();
        }
        msg
    }

    /// Handles a batched gossip exchange:
    ///
    /// * **Acknowledgements.** The sender's `known`/`stable` summaries
    ///   join what that incarnation acknowledged before, *replace* it when
    ///   the batch comes from a newer incarnation, and are ignored when it
    ///   comes from an older one.
    /// * **Facts.** Descriptors are admitted; labels are merged for the
    ///   operations whose descriptor this replica holds.
    /// * **Knowledge.** Only the [`IdSummary::difference`] of the
    ///   `done`/`stable` summaries against what was already folded from
    ///   this sender is examined (O(delta)), and an id is folded only once
    ///   this replica holds its descriptor and label; otherwise a later
    ///   batch retries it. A batch pruned against the acknowledgements of
    ///   an earlier incarnation of *this* replica (`acked` ≠
    ///   [`Replica::incarnation`]) may omit labels its summaries rely on,
    ///   so it folds no knowledge and does not count toward the §9.3
    ///   recovery gate.
    ///
    /// So lost, duplicated and reordered batches are harmless: every batch
    /// is self-contained and every merge is monotone.
    pub fn on_batched_gossip(
        &mut self,
        g: BatchedGossipMsg<T::Operator>,
    ) -> Vec<RespondEffect<T::Value>> {
        self.stats.gossip_in += 1;
        let BatchedGossipMsg {
            from,
            incarnation,
            acked,
            rcvd,
            done,
            labels,
            stable,
            known,
        } = g;
        let acks = self.batch.entry(from).or_default();
        match incarnation.cmp(&acks.incarnation) {
            Ordering::Greater => {
                acks.incarnation = incarnation;
                acks.known = known;
                acks.stable = stable.clone();
            }
            Ordering::Equal => {
                acks.known.merge(&known);
                acks.stable.merge(&stable);
            }
            Ordering::Less => {}
        }
        for d in rcvd {
            self.admit(d);
        }
        for (id, l) in labels {
            if self.holds(id) {
                self.merge_label(id, l);
            }
        }
        if acked != self.incarnation {
            return self.step();
        }
        let seen = &self.batch[&from];
        let fold = |delta: IdSummary| -> Vec<OpId> {
            delta
                .iter()
                .filter(|x| self.holds(*x) && self.labels.is_labeled(*x))
                .collect()
        };
        let new_done = fold(done.difference(&seen.seen_done));
        let new_stable = fold(stable.difference(&seen.seen_stable));
        let seen = self.batch.get_mut(&from).expect("entry created above");
        seen.seen_done.extend(new_done.iter().copied());
        seen.seen_stable.extend(new_stable.iter().copied());
        self.fold_knowledge(from, &new_done, &new_stable);
        self.step()
    }

    /// Whether this replica holds `x`'s descriptor — in `rcvd`, or purged
    /// by §10.2 compaction after `x` was done here.
    fn holds(&self, x: OpId) -> bool {
        self.rcvd.contains_key(&x) || self.done[self.idx(self.id)].contains(&x)
    }

    /// Dispatches any replica-to-replica message to its handler.
    pub fn on_gossip_envelope(
        &mut self,
        env: GossipEnvelope<T::Operator>,
    ) -> Vec<RespondEffect<T::Value>> {
        match env {
            GossipEnvelope::Snapshot(g) => self.on_gossip(g),
            GossipEnvelope::Batched(b) => self.on_batched_gossip(b),
        }
    }

    /// §10.2 local compaction: purges the full descriptors (operator and
    /// `prev` set) of operations that are **stable at this replica**,
    /// **memoized**, and **not pending**, keeping only what the paper says
    /// must survive — the identifier, its label, and its memoized value.
    /// Returns the number of descriptors purged.
    ///
    /// Soundness: stability at `r` means the operation is done at *every*
    /// replica (Invariant 7.2), so no replica will ever run `do_it` for it
    /// again — and `do_it` is the only consumer of `prev` (§10.2). The
    /// memoized prefix supplies the operation's fixed value and the state
    /// it folds into (Lemma 10.2), so the operator is never reapplied. A
    /// purged descriptor simply stops appearing in gossip `R` components;
    /// receivers only need `R` for their own `do_it`, which they have all
    /// performed.
    ///
    /// Interaction with crash recovery (§9.3): a replica that loses its
    /// volatile memory rebuilds `rcvd` from peers' gossip, so if **every**
    /// peer compacted an operation the recovering replica cannot replay it
    /// and would need a state-snapshot transfer instead. The paper presents
    /// the §9.3 recovery scheme and the §10.2 optimizations independently;
    /// so do we — deployments using [`Replica::crash`]/[`Replica::recover`]
    /// should leave at least one replica uncompacted or skip compaction,
    /// as `tests/faults.rs` does.
    ///
    /// No-op (returning 0) when memoization is disabled or the replica is
    /// recovering.
    pub fn compact(&mut self) -> usize {
        if self.recovering.is_some() {
            return 0;
        }
        let here = self.idx(self.id);
        let Some(memo) = &self.memo else {
            return 0;
        };
        let victims: Vec<OpId> = self.stable[here]
            .iter()
            .filter(|x| memo.values.contains_key(x))
            .filter(|x| !self.pending.contains(x))
            .filter(|x| self.rcvd.contains_key(x))
            .copied()
            .collect();
        for x in &victims {
            self.rcvd.remove(x);
        }
        self.stats.compacted += victims.len() as u64;
        victims.len()
    }

    /// Descriptors currently held in `rcvd` — the §10.2 memory-growth
    /// metric (`tab_memory` experiment).
    pub fn retained_descriptors(&self) -> usize {
        self.rcvd.len()
    }

    // ------------------------------------------------------------------
    // Internal actions
    // ------------------------------------------------------------------

    /// Adds a descriptor to `rcvd` and updates dependency bookkeeping.
    fn admit(&mut self, desc: OpDescriptor<T::Operator>) {
        let id = desc.id;
        if self.rcvd.contains_key(&id) {
            return;
        }
        let here = self.idx(self.id);
        let missing: Vec<OpId> = desc
            .prev
            .iter()
            .filter(|p| !self.done[here].contains(p))
            .copied()
            .collect();
        self.rcvd.insert(id, desc);
        self.rcvd_summary.insert(id);
        if let Some(w) = &mut self.wal_delta {
            w.admitted.push(id);
        }
        if self.done[here].contains(&id) {
            // Already done via gossip D/S before the descriptor arrived in
            // R of the same message — nothing to schedule.
            return;
        }
        if missing.is_empty() {
            self.ready.push(id);
        } else {
            self.blocked_on.insert(id, missing.len());
            for m in missing {
                self.blockers.entry(m).or_default().push(id);
            }
        }
    }

    /// Records a decreased label minimum in the pending WAL delta.
    fn record_label(&mut self, id: OpId, l: Label) {
        if let Some(w) = &mut self.wal_delta {
            w.labels.insert(id, l);
        }
    }

    /// Marks `x` done at replica index `i`, maintaining the done-counts and
    /// the derived `stable_r[r] = ∩ᵢ done_r[i]` (Invariant 7.2).
    fn mark_done_at(&mut self, x: OpId, i: usize) {
        if !self.done[i].insert(x) {
            return;
        }
        debug_assert!(
            i != self.idx(self.id) || self.labels.is_labeled(x),
            "done op {x} must be labeled (Invariant 7.5)"
        );
        let c = self.done_at_count.entry(x).or_insert(0);
        *c += 1;
        if *c as usize == self.n {
            let here = self.idx(self.id);
            self.mark_stable_at(x, here);
        }
        let here = self.idx(self.id);
        if i == here {
            self.done_here_summary.insert(x);
            self.newly_done.push(x);
            if self.eager.is_some() {
                self.eager_backlog.push(x);
            }
            // x became done here: unblock dependents.
            if let Some(deps) = self.blockers.remove(&x) {
                for y in deps {
                    if let Some(left) = self.blocked_on.get_mut(&y) {
                        *left -= 1;
                        if *left == 0 {
                            self.blocked_on.remove(&y);
                            if !self.done[here].contains(&y) {
                                self.ready.push(y);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Marks `x` stable at replica index `i`, maintaining stable-counts and
    /// `∩ᵢ stable_r[i]`.
    fn mark_stable_at(&mut self, x: OpId, i: usize) {
        if !self.stable[i].insert(x) {
            return;
        }
        if i == self.idx(self.id) {
            self.stable_here_summary.insert(x);
            self.stable_label_max = self.stable_label_max.max(self.labels.get(x).finite());
        }
        let c = self.stable_at_count.entry(x).or_insert(0);
        *c += 1;
        if *c as usize == self.n {
            self.stable_everywhere.insert(x);
        }
    }

    /// Runs `do_it` to fixpoint, advances the memo prefix, and computes
    /// responses for satisfiable pending requests.
    fn step(&mut self) -> Vec<RespondEffect<T::Value>> {
        if self.recovering.is_some() {
            return Vec::new();
        }
        // do_it: label every ready operation (ready ⇒ x ∈ rcvd − done[r]
        // and x.prev ⊆ done[r].id — exactly Fig. 7's precondition).
        while let Some(x) = self.ready.pop() {
            let here = self.idx(self.id);
            if self.done[here].contains(&x) {
                continue; // became done via gossip meanwhile
            }
            let l = match self.persisted_labels.get(&x) {
                // Our own pre-crash minimum: reuse it so the eventual order
                // is unchanged by the crash.
                Some(p) => *p,
                None => self.gen.fresh_above(self.labels.max_label()),
            };
            if self.labels.merge_min(x, l) {
                self.record_label(x, l);
            }
            self.stats.do_its += 1;
            self.mark_done_at(x, here);
        }
        self.process_eager_backlog();
        self.advance_memo();
        self.respond_pending()
    }

    /// Folds newly-done operations into the eager current state `cs_r` in a
    /// CSC-consistent order (Fig. 11's "in any order consistent with
    /// CSC(D)"), fixing each operation's do-time value.
    fn process_eager_backlog(&mut self) {
        if self.eager.is_none() || self.eager_backlog.is_empty() {
            return;
        }
        let batch: Vec<OpId> = std::mem::take(&mut self.eager_backlog);
        let batch_set: BTreeSet<OpId> = batch.iter().copied().collect();
        let mut g: Digraph<OpId> = Digraph::new();
        for x in &batch {
            g.add_node(*x);
            for p in &self.rcvd[x].prev {
                if batch_set.contains(p) {
                    g.add_edge(*p, *x);
                }
            }
        }
        let order = g
            .topo_sort()
            .expect("client-specified constraints are acyclic");
        let eager = self.eager.as_mut().expect("checked above");
        for x in order {
            if eager.vals.contains_key(&x) {
                continue;
            }
            let d = self.rcvd.get(&x).expect("done op has descriptor");
            let (ns, v) = self.dt.apply(&eager.cs, &d.op);
            self.stats.eager_applies += 1;
            eager.cs = ns;
            eager.vals.insert(x, v);
        }
    }

    /// Advances the memoized prefix over all *solid* operations: those with
    /// label ≤ the largest stable label (Invariant 10.1). Solid labels are
    /// frozen (Lemma 10.2), so the prefix never has to be recomputed.
    fn advance_memo(&mut self) {
        let Some(memo) = &mut self.memo else {
            return;
        };
        let Some(boundary) = self.stable_label_max else {
            return;
        };
        while let Some((l, id)) = self.labels.next_after(memo.last_label) {
            if l > boundary {
                break;
            }
            let d = self.rcvd.get(&id).expect("done op has descriptor");
            let (ns, v) = self.dt.apply(&memo.state, &d.op);
            self.stats.memo_applies += 1;
            memo.state = ns;
            memo.values.insert(id, v);
            memo.order.push(id);
            memo.last_label = Some(l);
        }
    }

    /// `send_cr(⟨"response", x, v⟩)` for every satisfiable pending request:
    /// `x ∈ pending ∩ done[r]`, and strict operations must be stable at all
    /// replicas. The value is computed from the local label order
    /// (`valset(x, done_r[r], ≺_{lc_r})` is a singleton by Invariant 7.16).
    fn respond_pending(&mut self) -> Vec<RespondEffect<T::Value>> {
        let here = self.idx(self.id);
        let candidates: Vec<OpId> = self
            .pending
            .iter()
            .filter(|x| self.done[here].contains(x))
            .copied()
            .collect();
        let mut out = Vec::new();
        for x in candidates {
            let strict = self.rcvd[&x].strict;
            if strict && !self.stable_everywhere.contains(&x) {
                continue;
            }
            let value = self.compute_value(x);
            let witness = self.config.record_witness.then(|| self.witness_for(x));
            self.pending.remove(&x);
            self.stats.responses += 1;
            out.push(RespondEffect {
                client: x.client(),
                msg: ResponseMsg {
                    id: x,
                    value,
                    witness,
                },
            });
        }
        out
    }

    /// The value of done operation `x` under the local label order: the
    /// memoized value if fixed, else recomputed from the memo state (or
    /// initial state) over the unmemoized suffix.
    fn compute_value(&mut self, x: OpId) -> T::Value {
        // Memoized (eventual-order) values take precedence: strict
        // operations are always memoized by the time they respond.
        if let Some(m) = &self.memo {
            if let Some(v) = m.values.get(&x) {
                return v.clone();
            }
        }
        // §10.3 eager mode: the do-time value (sound under SafeUsers).
        if let Some(e) = &self.eager {
            return e
                .vals
                .get(&x)
                .cloned()
                .expect("eager value is fixed when the op is done");
        }
        let (mut s, mut cursor) = match &self.memo {
            Some(m) => (m.state.clone(), m.last_label),
            None => (self.dt.initial_state(), None),
        };
        let target = self
            .labels
            .get(x)
            .finite()
            .expect("responding to an unlabeled op");
        loop {
            let (l, id) = self
                .labels
                .next_after(cursor)
                .expect("target label must be reachable");
            let d = self.rcvd.get(&id).expect("done op has descriptor");
            let (ns, v) = self.dt.apply(&s, &d.op);
            self.stats.response_applies += 1;
            if l == target {
                debug_assert_eq!(id, x);
                return v;
            }
            s = ns;
            cursor = Some(l);
        }
    }

    /// Checks the §10.1 memoization invariants (Invariants 10.1, 10.4):
    /// the memoized prefix is exactly a label-order prefix of solid
    /// operations, `ms_r` equals the outcome of replaying it, and every
    /// memoized value matches a from-scratch recomputation. Returns a
    /// description of the first violation, if any. Intended for tests and
    /// the invariant harness; linear in the number of done operations.
    pub fn check_memo_consistency(&self) -> Result<(), String> {
        let Some(memo) = &self.memo else {
            return Ok(());
        };
        let here = self.idx(self.id);
        // Invariant 10.1: memoized ⊆ solid (labels ≤ the largest stable
        // label) and the prefix is in label order. The boundary is
        // rescanned here as the oracle for the one `mark_stable_at` keeps.
        let boundary = self.stable[here]
            .iter()
            .filter_map(|x| self.labels.get(*x).finite())
            .max();
        if boundary != self.stable_label_max {
            return Err(format!(
                "memo boundary {:?} disagrees with the largest stable label {boundary:?}",
                self.stable_label_max
            ));
        }
        let mut prev: Option<Label> = None;
        for x in &memo.order {
            let l = self
                .labels
                .get(*x)
                .finite()
                .ok_or_else(|| format!("memoized op {x} has no label"))?;
            if let Some(p) = prev {
                if l <= p {
                    return Err(format!("memo order not label-sorted at {x}"));
                }
            }
            match boundary {
                Some(b) if l <= b => {}
                _ => return Err(format!("memoized op {x} is not solid (Invariant 10.1)")),
            }
            prev = Some(l);
        }
        if prev != memo.last_label {
            return Err("memo.last_label out of sync with memo.order".to_string());
        }
        // Invariant 10.4: ms = outcome(memoized, lc order) and mv matches a
        // recomputation from scratch. §10.2 compaction purges exactly the
        // replay material this diagnostic needs, so a compacted replica
        // skips the replay (the invariant held when the value was fixed;
        // Lemma 10.2 says it cannot change afterwards).
        if memo.order.iter().any(|x| !self.rcvd.contains_key(x)) {
            return Ok(());
        }
        let mut s = self.dt.initial_state();
        for x in &memo.order {
            let d = self
                .rcvd
                .get(x)
                .ok_or_else(|| format!("memoized op {x} missing descriptor"))?;
            let (ns, v) = self.dt.apply(&s, &d.op);
            if memo.values.get(x) != Some(&v) {
                return Err(format!("memoized value of {x} diverges (Invariant 10.4)"));
            }
            s = ns;
        }
        if s != memo.state {
            return Err("memo state diverges from replay (Invariant 10.4)".to_string());
        }
        Ok(())
    }

    /// The local label order up to and including `x` (checker witness).
    fn witness_for(&self, x: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        for id in self.local_order() {
            out.push(id);
            if id == x {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal counter datatype for replica unit tests.
    #[derive(Clone, Copy, Debug)]
    struct Ctr;
    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Op {
        Inc,
        Read,
    }
    impl SerialDataType for Ctr {
        type State = i64;
        type Operator = Op;
        type Value = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn apply(&self, s: &i64, op: &Op) -> (i64, i64) {
            match op {
                Op::Inc => (s + 1, s + 1),
                Op::Read => (*s, *s),
            }
        }
    }

    fn id(c: u32, s: u64) -> OpId {
        OpId::new(ClientId(c), s)
    }

    fn two_replicas(config: ReplicaConfig) -> (Replica<Ctr>, Replica<Ctr>) {
        (
            Replica::new(Ctr, ReplicaId(0), 2, config),
            Replica::new(Ctr, ReplicaId(1), 2, config),
        )
    }

    /// Fully exchange gossip between two replicas once in each direction.
    fn sync(a: &mut Replica<Ctr>, b: &mut Replica<Ctr>) -> Vec<RespondEffect<i64>> {
        let mut effects = Vec::new();
        let ga = a.make_gossip(b.id());
        effects.extend(b.on_gossip(ga));
        let gb = b.make_gossip(a.id());
        effects.extend(a.on_gossip(gb));
        effects
    }

    #[test]
    fn nonstrict_request_answered_immediately() {
        let (mut a, _) = two_replicas(ReplicaConfig::default());
        let d = OpDescriptor::new(id(0, 0), Op::Inc);
        let fx = a.on_request(d);
        assert_eq!(fx.len(), 1);
        assert_eq!(fx[0].msg.id, id(0, 0));
        assert_eq!(fx[0].msg.value, 1);
        assert_eq!(fx[0].client, ClientId(0));
        assert!(a.pending().is_empty());
    }

    #[test]
    fn strict_request_waits_for_global_stability() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        let d = OpDescriptor::new(id(0, 0), Op::Inc).with_strict(true);
        let fx = a.on_request(d);
        assert!(fx.is_empty(), "strict op must not answer before stability");

        // Round 1: b learns the op and does it; a learns b has it done →
        // a: done everywhere → stable at a. But a doesn't know b knows.
        let mut fx = sync(&mut a, &mut b);
        // Round 2: b learns a's stability, b stabilizes; a learns b's
        // stability → stable everywhere at a → respond.
        fx.extend(sync(&mut a, &mut b));
        // At most one extra round for the response.
        fx.extend(sync(&mut a, &mut b));
        let resp: Vec<_> = fx.iter().filter(|e| e.msg.id == id(0, 0)).collect();
        assert_eq!(resp.len(), 1, "exactly one response for the strict op");
        assert_eq!(resp[0].msg.value, 1);
    }

    #[test]
    fn prev_constraint_defers_do_it() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        // y depends on x, but y is sent to b which has never seen x.
        let x = OpDescriptor::new(id(0, 0), Op::Inc);
        let y = OpDescriptor::new(id(0, 1), Op::Read).with_prev([id(0, 0)]);
        let fx = b.on_request(y);
        assert!(fx.is_empty(), "y must wait for x");
        assert!(b.done_here().is_empty());

        let _ = a.on_request(x);
        let fx = sync(&mut a, &mut b);
        // b now has x via gossip, does x then y; read sees the increment.
        let resp: Vec<_> = fx.iter().filter(|e| e.msg.id == id(0, 1)).collect();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].msg.value, 1);
    }

    #[test]
    fn labels_converge_to_minimum() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        // Both replicas label the same op independently; after gossip both
        // hold the minimum.
        let d = OpDescriptor::new(id(0, 0), Op::Inc);
        let _ = a.on_request(d.clone());
        let _ = b.on_request(d);
        let la = a.labels().get(id(0, 0));
        let lb = b.labels().get(id(0, 0));
        let min = la.min(lb);
        sync(&mut a, &mut b);
        assert_eq!(a.labels().get(id(0, 0)), min);
        assert_eq!(b.labels().get(id(0, 0)), min);
    }

    #[test]
    fn duplicate_request_reanswered() {
        let (mut a, _) = two_replicas(ReplicaConfig::default());
        let d = OpDescriptor::new(id(0, 0), Op::Inc);
        let fx1 = a.on_request(d.clone());
        let fx2 = a.on_request(d);
        assert_eq!(fx1.len(), 1);
        assert_eq!(fx2.len(), 1, "retried request gets a fresh response");
        assert_eq!(fx1[0].msg.value, fx2[0].msg.value);
        assert_eq!(a.stats().do_its, 1, "but the op is done only once");
    }

    #[test]
    fn replicas_converge_after_gossip() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let _ = b.on_request(OpDescriptor::new(id(1, 0), Op::Inc));
        sync(&mut a, &mut b);
        sync(&mut a, &mut b);
        assert_eq!(a.local_order(), b.local_order());
        assert_eq!(a.current_state(), b.current_state());
        assert_eq!(a.current_state(), 2);
    }

    #[test]
    fn memoization_matches_basic_values() {
        let mut basic = Replica::new(Ctr, ReplicaId(0), 2, ReplicaConfig::basic());
        let mut memo = Replica::new(Ctr, ReplicaId(0), 2, ReplicaConfig::default());
        let mut peer_b = Replica::new(Ctr, ReplicaId(1), 2, ReplicaConfig::basic());
        let mut peer_m = Replica::new(Ctr, ReplicaId(1), 2, ReplicaConfig::default());

        for s in 0..20 {
            let op = if s % 3 == 0 { Op::Read } else { Op::Inc };
            let d = OpDescriptor::new(id(0, s), op);
            let fb = basic.on_request(d.clone());
            let fm = memo.on_request(d);
            assert_eq!(
                fb.iter()
                    .map(|e| (e.msg.id, e.msg.value))
                    .collect::<Vec<_>>(),
                fm.iter()
                    .map(|e| (e.msg.id, e.msg.value))
                    .collect::<Vec<_>>()
            );
            if s % 5 == 0 {
                sync(&mut basic, &mut peer_b);
                sync(&mut memo, &mut peer_m);
            }
        }
        sync(&mut memo, &mut peer_m);
        sync(&mut memo, &mut peer_m);
        // After enough gossip the memo prefix covers everything stable.
        assert!(!memo.memo_order().is_empty());
        assert_eq!(memo.current_state(), basic.current_state());
    }

    /// Exchange one batched round in each direction via poll_gossip
    /// (batch_interval 1 ⇒ always due).
    fn sync_batched(a: &mut Replica<Ctr>, b: &mut Replica<Ctr>) -> Vec<RespondEffect<i64>> {
        let mut effects = Vec::new();
        if let Some(env) = a.poll_gossip(b.id()) {
            effects.extend(b.on_gossip_envelope(env));
        }
        if let Some(env) = b.poll_gossip(a.id()) {
            effects.extend(a.on_gossip_envelope(env));
        }
        effects
    }

    #[test]
    fn batched_gossip_converges_like_full() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let _ = b.on_request(OpDescriptor::new(id(1, 0), Op::Inc));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        assert_eq!(a.local_order(), b.local_order());
        assert_eq!(a.current_state(), 2);
        assert!(a.stable_everywhere().contains(&id(0, 0)));
        assert!(b.stable_everywhere().contains(&id(1, 0)));
    }

    #[test]
    fn batched_strict_request_stabilizes() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let fx = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc).with_strict(true));
        assert!(fx.is_empty());
        let mut fx = Vec::new();
        for _ in 0..4 {
            fx.extend(sync_batched(&mut a, &mut b));
        }
        let resp: Vec<_> = fx.iter().filter(|e| e.msg.id == id(0, 0)).collect();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].msg.value, 1);
    }

    #[test]
    fn batched_ships_descriptors_once_and_prunes_by_handshake() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let Some(GossipEnvelope::Batched(g1)) = a.poll_gossip(ReplicaId(1)) else {
            panic!("batch_interval 1 must emit");
        };
        assert_eq!(g1.rcvd.len(), 1, "first exchange ships the descriptor");
        let _ = b.on_gossip_envelope(GossipEnvelope::Batched(g1));
        // b's reply acknowledges the descriptor in its `known` handshake.
        let Some(ack) = b.poll_gossip(ReplicaId(0)) else {
            panic!()
        };
        let _ = a.on_gossip_envelope(ack);
        let Some(GossipEnvelope::Batched(g2)) = a.poll_gossip(ReplicaId(1)) else {
            panic!()
        };
        assert!(
            g2.rcvd.is_empty(),
            "the acknowledged descriptor is not re-sent"
        );
        // An op b learned elsewhere (directly) is covered by b's handshake:
        // a never ships its descriptor even though a also holds it.
        let _ = b.on_request(OpDescriptor::new(id(1, 0), Op::Inc));
        let Some(env) = b.poll_gossip(ReplicaId(0)) else {
            panic!()
        };
        let _ = a.on_gossip_envelope(env); // a learns b's handshake covers 1:0
        let Some(GossipEnvelope::Batched(g3)) = a.poll_gossip(ReplicaId(1)) else {
            panic!()
        };
        assert!(
            g3.rcvd.is_empty(),
            "peer_rcvd handshake prunes descriptors the peer already has"
        );
    }

    #[test]
    fn batched_interval_paces_exchanges() {
        let cfg = ReplicaConfig::default().with_batched(3);
        let (mut a, _) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        assert!(a.poll_gossip(ReplicaId(1)).is_none(), "tick 1 accumulates");
        assert!(a.poll_gossip(ReplicaId(1)).is_none(), "tick 2 accumulates");
        let env = a.poll_gossip(ReplicaId(1)).expect("tick 3 emits the batch");
        match env {
            GossipEnvelope::Batched(b) => assert_eq!(b.rcvd.len(), 1),
            GossipEnvelope::Snapshot(_) => panic!("batched strategy emits batches"),
        }
        assert!(a.poll_gossip(ReplicaId(1)).is_none(), "pacing restarts");
    }

    #[test]
    fn batched_duplicate_delivery_is_idempotent() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let Some(GossipEnvelope::Batched(g)) = a.poll_gossip(ReplicaId(1)) else {
            panic!()
        };
        let _ = b.on_batched_gossip(g.clone());
        let before = (b.done_here().clone(), b.labels().clone());
        let _ = b.on_batched_gossip(g);
        assert_eq!(b.done_here(), &before.0);
        assert_eq!(b.labels(), &before.1);
    }

    #[test]
    fn batched_reset_watermark_reships_everything() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        // First batch is "lost": b never sees it, so the next one re-ships.
        let _ = a.poll_gossip(ReplicaId(1)).expect("emitted");
        let Some(GossipEnvelope::Batched(g2)) = a.poll_gossip(ReplicaId(1)) else {
            panic!()
        };
        assert_eq!(g2.rcvd.len(), 1, "unacknowledged descriptors re-ship");
        assert_eq!(
            g2.labels.len(),
            1,
            "labels re-ship until the peer is stable"
        );
        let _ = b.on_gossip_envelope(GossipEnvelope::Batched(g2));
        assert!(b.done_here().contains(&id(0, 0)));
        // Once b acknowledges, resetting the acks re-ships everything.
        let _ = a.on_gossip_envelope(b.poll_gossip(ReplicaId(0)).expect("emitted"));
        assert!(a.make_batched_gossip(ReplicaId(1)).rcvd.is_empty());
        a.reset_watermark(ReplicaId(1));
        let Some(GossipEnvelope::Batched(g3)) = a.poll_gossip(ReplicaId(1)) else {
            panic!()
        };
        assert_eq!(g3.rcvd.len(), 1, "reset forgets the acknowledgements");
    }

    #[test]
    fn batched_label_gc_retires_peer_stable_labels_until_reset() {
        // Once the peer reports an op stable its label is frozen there
        // (Invariant 7.19), so batches stop carrying it; but the
        // acknowledgement belongs to one incarnation of the peer — once
        // the peer restarts, its new handshake replaces the old acks and
        // the label ships again, because the restarted peer lost it.
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        assert!(a.stable(ReplicaId(1)).contains(&id(0, 0)));
        let g = a.make_batched_gossip(ReplicaId(1));
        assert!(g.labels.is_empty(), "peer-stable labels are retired");
        assert!(g.rcvd.is_empty(), "acknowledged descriptors are retired");
        let b = Replica::recover(Ctr, b.crash(), 2, cfg);
        assert_eq!(b.incarnation(), 1);
        let _ = a.on_batched_gossip(b.make_batched_gossip(ReplicaId(0)));
        let g = a.make_batched_gossip(ReplicaId(1));
        assert_eq!(g.acked, 1, "pruned against the new incarnation");
        assert_eq!(g.rcvd.len(), 1, "descriptor re-ships after the restart");
        assert_eq!(g.labels.len(), 1, "label re-ships after the restart");
    }

    #[test]
    fn batched_crash_recovery_relearns_labels() {
        // Regression (found in review): retiring labels by peek-at-
        // `stable[peer]` alone made them unrecoverable — a crashed peer
        // lost its labels, and the sender's stale stability knowledge
        // suppressed re-shipping them, so the recovered replica marked
        // ops done without labels (Invariant 7.5 violation).
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        assert!(a.stable(ReplicaId(1)).contains(&id(0, 0)));
        // Exchange once more so a's label GC retires the stable label.
        let _ = b.on_batched_gossip(a.make_batched_gossip(ReplicaId(1)));
        // b crashes and recovers; the harness protocol: peers reset.
        let stub = b.crash();
        let mut b = Replica::recover(Ctr, stub, 2, cfg);
        a.reset_watermark(ReplicaId(1));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        assert!(!b.is_recovering());
        assert!(b.labels().is_labeled(id(0, 0)), "label re-learned");
        assert!(b.done_here().contains(&id(0, 0)));
        assert_eq!(b.current_state(), 1);
        assert_eq!(a.local_order(), b.local_order());
    }

    #[test]
    fn batched_summaries_survive_compaction() {
        // §10.2 compaction purges descriptors, not knowledge: the
        // handshake still covers compacted ids and D/S still carry them.
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        assert!(a.stable_here().contains(&id(0, 0)));
        assert_eq!(a.compact(), 1);
        let g = a.make_batched_gossip(ReplicaId(1));
        assert!(g.known.contains(id(0, 0)), "knowledge outlives storage");
        assert!(g.done.contains(id(0, 0)));
        assert!(g.stable.contains(id(0, 0)));
        let _ = b.on_batched_gossip(g);
    }

    #[test]
    fn batched_recovering_replica_gossips_only_its_handshake() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, _) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let mut a = Replica::recover(Ctr, a.crash(), 2, cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        assert!(a.is_recovering());
        let Some(GossipEnvelope::Batched(g)) = a.poll_gossip(ReplicaId(1)) else {
            panic!("recovering replicas still send batches")
        };
        assert_eq!(g.incarnation, 1);
        assert!(
            g.known.contains(id(0, 0)),
            "the handshake covers what it holds"
        );
        assert!(g.rcvd.is_empty() && g.labels.is_empty());
        assert!(g.done.is_empty() && g.stable.is_empty(), "no knowledge yet");
    }

    #[test]
    fn batched_receiver_folds_nothing_it_cannot_label() {
        // Whatever order batches arrive in, the receiver never marks an op
        // done while it lacks the op's descriptor or label. Simulate a
        // batch that names an op in `done` without carrying either.
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let whole = a.make_batched_gossip(ReplicaId(1));
        let mut bare = whole.clone();
        bare.rcvd.clear();
        bare.labels.clear();
        let _ = b.on_batched_gossip(bare.clone());
        assert!(b.done(ReplicaId(0)).is_empty(), "not held: not folded");
        assert!(!b.labels().is_labeled(id(0, 0)));
        let _ = b.on_batched_gossip(whole);
        assert!(b.done(ReplicaId(0)).contains(&id(0, 0)), "folded once held");
        assert_eq!(b.labels().get(id(0, 0)), a.labels().get(id(0, 0)));
        let _ = b.on_batched_gossip(bare);
        assert_eq!(b.check_memo_consistency(), Ok(()));
    }

    #[test]
    fn batched_batch_pruned_for_a_previous_life_folds_no_knowledge() {
        let cfg = ReplicaConfig::default().with_batched(1);
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync_batched(&mut a, &mut b);
        }
        // b restarts; a has not heard its new handshake yet, so a's batch
        // is pruned for the old b (no label) and must not count.
        let mut b = Replica::recover(Ctr, b.crash(), 2, cfg);
        let stale = a.make_batched_gossip(ReplicaId(1));
        assert_eq!((stale.acked, stale.labels.len()), (0, 0));
        let _ = b.on_batched_gossip(stale);
        assert!(b.is_recovering(), "a stale batch does not open the gate");
        assert!(b.done(ReplicaId(0)).is_empty());
        for _ in 0..3 {
            sync_batched(&mut a, &mut b);
        }
        assert!(!b.is_recovering());
        assert_eq!(b.labels().get(id(0, 0)), a.labels().get(id(0, 0)));
        assert_eq!(b.current_state(), 1);
    }

    #[test]
    fn memo_boundary_tracks_the_largest_stable_label() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        for s in 0..6 {
            let _ = a.on_request(OpDescriptor::new(id(0, s), Op::Inc));
            let _ = b.on_request(OpDescriptor::new(id(1, s), Op::Inc));
            sync_batched(&mut a, &mut b);
            for r in [&a, &b] {
                let scan = r
                    .stable_here()
                    .iter()
                    .filter_map(|x| r.labels().get(*x).finite())
                    .max();
                assert_eq!(r.stable_label_max, scan);
                assert_eq!(r.check_memo_consistency(), Ok(()));
            }
        }
        assert!(a.stable_label_max.is_some());
    }

    #[test]
    fn make_gossip_under_batched_falls_back_to_snapshot() {
        let cfg = ReplicaConfig::default().with_batched(4);
        let (mut a, _) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let g = a.make_gossip(ReplicaId(1));
        assert_eq!(g.rcvd.len(), 1, "resync message carries the snapshot");
        assert_eq!(g.done.len(), 1);
    }

    #[test]
    fn gc_gossip_prunes_for_knowing_peer() {
        let cfg = ReplicaConfig::default().with_gc();
        let (mut a, mut b) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync(&mut a, &mut b);
        }
        assert!(a.stable(ReplicaId(1)).contains(&id(0, 0)));
        let g = a.make_gossip(ReplicaId(1));
        assert!(
            g.rcvd.is_empty(),
            "R pruned for peers that have the op stable"
        );
        assert!(g.done.is_empty());
        assert!(g.labels.is_empty());
        assert_eq!(g.stable.len(), 1, "S is never pruned");
    }

    #[test]
    fn compact_purges_only_stable_memoized_descriptors() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let _ = a.on_request(OpDescriptor::new(id(0, 1), Op::Inc));
        // Nothing is stable yet: compaction must be a no-op.
        assert_eq!(a.compact(), 0);
        for _ in 0..4 {
            sync(&mut a, &mut b);
        }
        assert!(a.stable_here().contains(&id(0, 0)));
        let purged = a.compact();
        assert_eq!(purged, 2, "both stable memoized ops purged");
        assert_eq!(a.retained_descriptors(), 0);
        assert_eq!(a.stats().compacted, 2);
        // Values, labels, and the object state survive the purge.
        assert_eq!(a.memo_value(id(0, 1)), Some(&2));
        assert!(a.labels().is_labeled(id(0, 0)));
        assert_eq!(a.current_state(), 2);
        // Fresh operations still work on the compacted replica.
        let fx = a.on_request(OpDescriptor::new(id(0, 2), Op::Read));
        assert_eq!(fx.len(), 1);
        assert_eq!(fx[0].msg.value, 2, "read sees the compacted history");
    }

    #[test]
    fn compacted_op_can_still_be_answered_on_retry() {
        // A front end may retry an already-answered request (footnote 4);
        // the memoized value answers it even after compaction.
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        let d = OpDescriptor::new(id(0, 0), Op::Inc);
        let _ = a.on_request(d.clone());
        for _ in 0..4 {
            sync(&mut a, &mut b);
        }
        assert_eq!(a.compact(), 1);
        let fx = a.on_request(d);
        assert_eq!(fx.len(), 1);
        assert_eq!(fx[0].msg.value, 1, "retry answered from the memoized value");
    }

    #[test]
    fn compact_requires_memoization() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::basic());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync(&mut a, &mut b);
        }
        // basic() disables memoization: nothing can be purged safely.
        assert_eq!(a.compact(), 0);
        assert_eq!(a.retained_descriptors(), 1);
    }

    #[test]
    fn compacted_replica_keeps_gossiping_ids_and_labels() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::default());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        for _ in 0..4 {
            sync(&mut a, &mut b);
        }
        let _ = a.compact();
        let g = a.make_gossip(ReplicaId(1));
        assert!(g.rcvd.is_empty(), "descriptor purged from R");
        assert!(g.done.contains(&id(0, 0)), "D still carries the id");
        assert!(
            g.labels.iter().any(|(i, _)| *i == id(0, 0)),
            "L still carries the label"
        );
        assert!(g.stable.contains(&id(0, 0)), "S still carries the vote");
        // The peer absorbs it without issue.
        let _ = b.on_gossip(g);
    }

    #[test]
    fn crash_recovery_preserves_minimum_labels() {
        let (mut a, mut b) = two_replicas(ReplicaConfig::basic());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let pre_label = a.labels().get(id(0, 0));
        sync(&mut a, &mut b);

        let stub = a.crash();
        assert_eq!(stub.local_min_labels.len(), 1);
        let mut a = Replica::recover(Ctr, stub, 2, ReplicaConfig::basic());
        assert!(a.is_recovering());

        // Requests during recovery are buffered, not answered.
        let fx = a.on_request(OpDescriptor::new(id(0, 1), Op::Read));
        assert!(fx.is_empty());

        b.reset_watermark(ReplicaId(0));
        let g = b.make_gossip(ReplicaId(0));
        let fx = a.on_gossip(g);
        assert!(!a.is_recovering());
        // The buffered read now answers and sees the pre-crash increment.
        let resp: Vec<_> = fx.iter().filter(|e| e.msg.id == id(0, 1)).collect();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].msg.value, 1);
        // The op's label is unchanged by the crash.
        assert_eq!(a.labels().get(id(0, 0)), pre_label);
    }

    #[test]
    fn recovery_waits_for_operations_it_labeled_before_the_crash() {
        // An op received and labeled locally but never gossiped out: the
        // crash keeps its minimum label in stable storage while every
        // peer is oblivious. The recovered replica must not rejoin on
        // peer gossip alone — its persisted label orders the op before
        // anything the group stabilizes meanwhile, so rejoining without
        // the descriptor would let strict responses be answered against
        // an order the relearned label later contradicts.
        let (mut a, mut b) = two_replicas(ReplicaConfig::basic());
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let stub = a.crash();
        assert_eq!(stub.local_min_labels.len(), 1);
        let mut a = Replica::recover(Ctr, stub, 2, ReplicaConfig::basic());

        // Full gossip from the only peer: it has never seen c0:0, so
        // recovery must stay open.
        b.reset_watermark(ReplicaId(0));
        let _ = a.on_gossip(b.make_gossip(ReplicaId(0)));
        assert!(a.is_recovering(), "peer gossip lacks the labeled op");

        // The front end retries the unanswered request; the next gossip
        // round closes recovery and the op keeps its pre-crash label.
        let pre = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        assert!(pre.is_empty(), "still passive until gossip re-checks");
        let _ = a.on_gossip(b.make_gossip(ReplicaId(0)));
        assert!(!a.is_recovering());
        assert!(a.done_here().contains(&id(0, 0)));
    }

    #[test]
    fn recovering_replica_gossips_empty() {
        let (a, _) = two_replicas(ReplicaConfig::basic());
        let stub = a.crash();
        let mut a = Replica::recover(Ctr, stub, 2, ReplicaConfig::basic());
        let g = a.make_gossip(ReplicaId(1));
        assert!(g.is_empty());
    }

    #[test]
    fn witness_records_local_prefix() {
        let cfg = ReplicaConfig::default().with_witness();
        let (mut a, _) = two_replicas(cfg);
        let _ = a.on_request(OpDescriptor::new(id(0, 0), Op::Inc));
        let fx = a.on_request(OpDescriptor::new(id(0, 1), Op::Read));
        let w = fx[0].msg.witness.as_ref().expect("witness recorded");
        assert_eq!(w, &vec![id(0, 0), id(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "replica id out of range")]
    fn bad_replica_id_rejected() {
        let _ = Replica::new(Ctr, ReplicaId(5), 2, ReplicaConfig::default());
    }

    #[test]
    fn single_replica_service_stabilizes_alone() {
        let mut a = Replica::new(Ctr, ReplicaId(0), 1, ReplicaConfig::default());
        let d = OpDescriptor::new(id(0, 0), Op::Inc).with_strict(true);
        let fx = a.on_request(d);
        assert_eq!(fx.len(), 1, "n=1: done ⇒ stable everywhere");
        assert_eq!(fx[0].msg.value, 1);
    }
}

//! The threaded **sharded** deployment: one [`RuntimeService`] (replica
//! threads + network thread) per shard, behind a single client handle —
//! with **live rebalancing** by slot migration.
//!
//! Mirrors `esds-harness`'s `ShardedSimSystem` for real threads: a
//! versioned [`RoutingTable`] (`key → slot → shard`) partitions the
//! keyspace of a [`KeyedDataType`] across `S` independent replica
//! groups, each running the unmodified Section 6 protocol. A
//! [`ShardedClient`] owns one front end per shard and routes each
//! submission through the **shared, versioned** table.
//!
//! ## Table versions and in-flight operations
//!
//! Every routing decision happens under the shared table lock, and every
//! submission registers itself against its slot before the lock is
//! released. A migration ([`ShardedService::add_shard`]) can therefore
//! never catch an operation "routed with a stale table": it freezes the
//! migrating slots first (submissions targeting them block on a condition
//! variable — retried after the flip against the new table), then waits
//! for every registered in-flight operation on those slots to be
//! answered. Operations in flight at freeze time keep their original
//! owner, which still answers them — and because the handoff waits for
//! them *and* for their stability, their effects are part of the stable
//! prefix that is replayed onto the new owner. Clients observe the flip
//! as a version bump ([`ShardedClient::table_version`]).
//!
//! The handoff is the same four-phase state machine as the simulated
//! layer (freeze → replay stable prefix → flip → drain), with the replay
//! chained by `prev` and its final link submitted **strict**, so the
//! transferred state is stable at every replica of the receiving group
//! before any client request is allowed to route there.
//!
//! One liveness requirement follows from client-side response tracking:
//! every submission must eventually be awaited (or another call made on
//! its handle) so the client can observe the response and deregister the
//! operation; a handle that submits to a migrating slot and then goes
//! silent forever holds the migration until its timeout.
//!
//! ## Cross-shard `prev` constraints
//!
//! As before: the client **waits** for every foreign-shard predecessor's
//! response before handing the dependent operation to its shard
//! (different shards are disjoint objects, so once the predecessor is
//! answered the remaining constraint is vacuous). Same-shard
//! predecessors are passed through to the group's protocol unchanged.
//!
//! ## Whole-object queries: scatter-gather
//!
//! Operators with no shard key whose data type can merge partial results
//! ([`KeyedDataType::is_gatherable`]) are **scattered**: one sub-operation
//! per involved shard (every shard owning at least one slot), answers
//! merged by [`KeyedDataType::merge_gathered`]. Routing a whole-object
//! query to the [`HOME_SLOT`] owner would silently return one shard's
//! slice — the wrong-partial-answer bug this subsystem removes.
//!
//! A gather touches every slot, so it registers against **every** slot in
//! the shared in-flight table (a migration drains it like any keyed
//! operation before freezing its slots' state) and blocks while *any*
//! slot is frozen — it can never observe a half-migrated table or land on
//! a shard that just replayed-and-drained.
//!
//! In **eventual** mode the sub-operations are ordinary non-strict
//! requests and the merge is whatever each shard answered. In
//! **barrier-strict** mode the client first takes a per-shard barrier, one
//! shard at a time (no 2PC, shards stay independent): snapshot the
//! shard's *answered frontier* (over-approximated by the union of its
//! replicas' local orders, which contains every answered operation), wait
//! until every replica of that shard reports the frontier **stable
//! everywhere**, and only then submit the strict sub-operation. Its fresh
//! label necessarily orders after the whole frontier in the shard's
//! eventual total order, so the merged answer is a consistent cut —
//! `esds_spec::check_barrier_cut` is the per-shard conformance predicate
//! (feed it [`ShardedClient::gather_detail`]).
//!
//! A keyless operator that is *not* gatherable keeps the legacy
//! [`HOME_SLOT`] routing. Cross-shard `prev` composes with gathers in
//! both directions: a gathered query's sub-operations anchor behind the
//! per-shard frontier of its `prev` set, and a dependent of a gathered
//! query anchors on the gather's **own sub-operation** in each involved
//! shard.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use esds_alg::Replica;
use esds_core::{
    ClientId, KeyedDataType, MigrationPlan, OpId, RoutingTable, ShardedOpId, HOME_SLOT,
};

use crate::service::{InspectHandle, RuntimeClient, RuntimeConfig, RuntimeService};

/// The slot an operator is attributed to (keyless → [`HOME_SLOT`]).
fn slot_of_op<T: KeyedDataType>(dt: &T, table: &RoutingTable, op: &T::Operator) -> u16 {
    match dt.shard_key(op) {
        Some(k) => table.slot_of_key(k),
        None => HOME_SLOT,
    }
}

/// Routing state shared by the service and every client handle.
struct RouteState {
    table: RoutingTable,
    /// Slots frozen by an in-progress migration; submissions block.
    frozen: BTreeSet<u16>,
    /// In-flight (submitted, response not yet observed) operations per
    /// slot. A migration waits for its slots to drain to zero.
    inflight: BTreeMap<u16, u64>,
}

struct RoutingShared {
    state: Mutex<RouteState>,
    cv: Condvar,
}

/// Front ends (and inspect handles, for the gather barrier) created for
/// existing client handles when a shard is added, waiting to be picked
/// up: `handle → [(shard, front end, inspect handle)]`.
type Mailbox<T> = Arc<Mutex<BTreeMap<u32, Vec<(u32, RuntimeClient<T>, InspectHandle<T>)>>>>;

/// The running sharded service: `S` independent [`RuntimeService`]s
/// behind a shared, versioned routing table.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use esds_datatypes::{KvOp, KvStore, KvValue};
/// use esds_runtime::{RuntimeConfig, ShardedService};
///
/// let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
/// let mut client = svc.client();
/// let put = client.submit(KvOp::put("user:1", "ada"), &[], false);
/// let get = client.submit(KvOp::get("user:1"), &[put], false);
/// let v = client.await_response(get, Duration::from_secs(10));
/// assert_eq!(v, Some(KvValue::Value(Some("ada".into()))));
/// svc.shutdown();
/// ```
pub struct ShardedService<T: KeyedDataType> {
    dt: T,
    config: RuntimeConfig,
    shards: Vec<RuntimeService<T>>,
    routing: Arc<RoutingShared>,
    mailbox: Mailbox<T>,
    /// Client handles created so far (mailbox keys).
    n_handles: u32,
    /// Timeout a client uses when waiting out a foreign-shard `prev`.
    cross_shard_wait: Duration,
    /// Timeout for a migration's drain/stability/replay phases.
    migration_timeout: Duration,
}

impl<T> ShardedService<T>
where
    T: KeyedDataType + Clone + Send + 'static,
    T::Operator: Send + Clone,
    T::Value: Send + Clone,
    T::State: Send,
{
    /// Starts `n_shards` independent replica groups, each configured by
    /// `config`, with the initial uniform routing table (version 0).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero (and see [`RuntimeService::start`]).
    pub fn start(dt: T, n_shards: usize, config: RuntimeConfig) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let shards = (0..n_shards)
            .map(|_| RuntimeService::start(dt.clone(), config.clone()))
            .collect();
        Self::with_shards(dt, config, shards)
    }

    /// Starts a sharded service over **pre-built** replica groups, each
    /// replica paired with its durable backend (see
    /// [`RuntimeService::start_durable`]) — the restart-from-disk entry
    /// point: the caller recovers every `(shard, replica)` store and
    /// hands the recovered replicas here, outer index = shard. Shards
    /// added later by [`ShardedService::add_shard`] are volatile (no
    /// backend); persist them by restarting the service durably.
    ///
    /// # Panics
    ///
    /// Panics if `shard_replicas` is empty or any group's size differs
    /// from `config.n_replicas`.
    pub fn start_durable(
        dt: T,
        config: RuntimeConfig,
        shard_replicas: Vec<Vec<crate::DurableReplica<T>>>,
    ) -> Self {
        assert!(!shard_replicas.is_empty(), "need at least one shard");
        let shards = shard_replicas
            .into_iter()
            .map(|reps| RuntimeService::start_durable(config.clone(), reps))
            .collect();
        Self::with_shards(dt, config, shards)
    }

    fn with_shards(dt: T, config: RuntimeConfig, shards: Vec<RuntimeService<T>>) -> Self {
        let n_shards = shards.len();
        ShardedService {
            routing: Arc::new(RoutingShared {
                state: Mutex::new(RouteState {
                    table: RoutingTable::uniform(n_shards as u32),
                    frozen: BTreeSet::new(),
                    inflight: BTreeMap::new(),
                }),
                cv: Condvar::new(),
            }),
            mailbox: Arc::new(Mutex::new(BTreeMap::new())),
            n_handles: 0,
            dt,
            config,
            shards,
            cross_shard_wait: Duration::from_secs(30),
            migration_timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the timeout used to wait for foreign-shard predecessors
    /// at submission time (default 30 s).
    #[must_use]
    pub fn with_cross_shard_wait(mut self, d: Duration) -> Self {
        self.cross_shard_wait = d;
        self
    }

    /// Overrides the migration timeout (default 30 s).
    #[must_use]
    pub fn with_migration_timeout(mut self, d: Duration) -> Self {
        self.migration_timeout = d;
        self
    }

    /// The current routing table (a snapshot — the live table is shared
    /// with every client and advances on migrations).
    pub fn table(&self) -> RoutingTable {
        self.routing
            .state
            .lock()
            .expect("routing lock")
            .table
            .clone()
    }

    /// The current table version (how many migrations have completed).
    pub fn table_version(&self) -> u64 {
        self.table().version()
    }

    /// Number of shards (including drained ones).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Creates a client with a front end in **every** shard.
    ///
    /// Per-group [`ClientId`]s may differ across shards once shards have
    /// been added (each group numbers its own front ends); the handle's
    /// global identity is its shard-0 id, and all bookkeeping tracks
    /// group-local ids per placement, so this is invisible to callers.
    pub fn client(&mut self) -> ShardedClient<T> {
        let fes: Vec<RuntimeClient<T>> = self.shards.iter_mut().map(|s| s.client()).collect();
        let inspects: Vec<InspectHandle<T>> =
            self.shards.iter().map(|s| s.inspect_handle()).collect();
        let id = fes[0].client();
        let handle = self.n_handles;
        self.n_handles += 1;
        ShardedClient {
            dt: self.dt.clone(),
            routing: self.routing.clone(),
            mailbox: self.mailbox.clone(),
            handle,
            id,
            fes,
            inspects,
            next_seq: 0,
            placements: BTreeMap::new(),
            gathers: BTreeMap::new(),
            unsettled: BTreeSet::new(),
            cross_shard_wait: self.cross_shard_wait,
        }
    }

    /// An [`InspectHandle`] onto one shard's replica group — what a
    /// barrier-cut audit needs to obtain the shard's eventual order.
    pub fn inspect_handle(&self, shard: u32) -> InspectHandle<T> {
        self.shards[shard as usize].inspect_handle()
    }

    /// Adds a shard and live-migrates ~`1/(S+1)` of the slots onto it
    /// (freeze → replay stable prefix → flip → drain; see module docs).
    /// Blocks until the handoff completes and returns the new shard's id.
    /// Existing client handles pick up their new front end automatically
    /// on their next call.
    ///
    /// # Panics
    ///
    /// Panics if in-flight operations on the migrating slots are not
    /// settled, or the replayed prefix does not stabilize, within the
    /// migration timeout.
    pub fn add_shard(&mut self) -> u32 {
        let plan = {
            let st = self.routing.state.lock().expect("routing lock");
            assert!(st.frozen.is_empty(), "a migration is already in progress");
            MigrationPlan::add_shard(&st.table)
        };
        let new_idx = self.shards.len() as u32;
        // Start the receiving group and pre-create a front end in it for
        // every existing client handle (picked up lazily via the mailbox)
        // — in handle order, before any other client can reach the group,
        // so the assignment is deterministic.
        let mut svc = RuntimeService::start(self.dt.clone(), self.config.clone());
        {
            let mut mb = self.mailbox.lock().expect("mailbox lock");
            for h in 0..self.n_handles {
                mb.entry(h)
                    .or_default()
                    .push((new_idx, svc.client(), svc.inspect_handle()));
            }
        }
        // The migration's own front end for the stable-prefix replay.
        let mut mfe = svc.client();
        self.shards.push(svc);

        let slots = plan.slots();
        let deadline = Instant::now() + self.migration_timeout;
        // Phase 1: freeze. New submissions on migrating slots now block.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            st.frozen = slots.clone();
        }
        // Wait for registered in-flight operations on those slots to be
        // answered and observed by their clients.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            while slots
                .iter()
                .any(|s| st.inflight.get(s).copied().unwrap_or(0) > 0)
            {
                assert!(
                    Instant::now() < deadline,
                    "migration timed out: in-flight operations on migrating slots were never \
                     settled (every submission must eventually be awaited)"
                );
                let (guard, _) = self
                    .routing
                    .cv
                    .wait_timeout(st, Duration::from_millis(10))
                    .expect("routing lock");
                st = guard;
            }
        }
        // Phase 2 gate: wait until every replica of every source group
        // has the migrating slots' operations stable everywhere — the
        // slots' serialization is then final and fully transferable.
        // Probed with the allocation-light `count_unstable` (the full
        // snapshot is fetched exactly once afterwards, for the replay),
        // so polling does not stall busy replica threads on copying
        // their history.
        let table = self.table();
        let sources: BTreeSet<u32> = plan.moves().iter().map(|m| m.from).collect();
        let make_filter = || -> crate::service::OpFilter<T> {
            let dt = self.dt.clone();
            let table = table.clone();
            let slots = slots.clone();
            Box::new(move |op| slots.contains(&slot_of_op(&dt, &table, op)))
        };
        loop {
            let pending = sources.iter().any(|src| {
                let group = &self.shards[*src as usize];
                (0..group.n_replicas()).any(|r| group.count_unstable(r, make_filter()) > 0)
            });
            if !pending {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "migration timed out waiting for slot stability in the source groups"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Phase 2: replay each slot's stable prefix in its final order,
        // chained with prev; the last link is strict so the transferred
        // state is stable at every replica of the new group before any
        // client request routes there. One full snapshot per *source
        // shard* (not per move — an add-shard plan has ~256/(S+1) moves
        // but at most S sources), taken after the gate passed, so the
        // history is cloned a bounded number of times. The receiving
        // group is brand new and empty, so the whole prefix is the delta
        // (unlike the simulated layer's drain path, nothing can already
        // hold a slice of the slot's timeline here).
        let snapshots: BTreeMap<u32, crate::service::ReplicaSnapshot<T>> = sources
            .iter()
            .map(|src| (*src, self.shards[*src as usize].snapshot(0)))
            .collect();
        for mv in plan.moves() {
            let snap = &snapshots[&mv.from];
            let prefix: Vec<T::Operator> = snap
                .order
                .iter()
                .filter(|id| {
                    snap.stable_everywhere.contains(id)
                        && slot_of_op(&self.dt, &table, &snap.ops[id]) == mv.slot
                })
                .map(|id| snap.ops[id].clone())
                .collect();
            let mut anchor: Option<OpId> = None;
            let n = prefix.len();
            for (i, op) in prefix.into_iter().enumerate() {
                let prev: Vec<OpId> = anchor.into_iter().collect();
                anchor = Some(mfe.submit(op, &prev, i + 1 == n));
            }
            if let Some(a) = anchor {
                assert!(
                    mfe.await_response(a, deadline.saturating_duration_since(Instant::now()))
                        .is_some(),
                    "replayed stable prefix of slot {} did not stabilize on the new shard",
                    mv.slot
                );
            }
        }
        // Phase 3 + 4: flip the table and unfreeze; blocked submissions
        // retry their routing decision against the new version.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            st.table.apply(&plan);
            st.frozen.clear();
        }
        self.routing.cv.notify_all();
        new_idx
    }

    /// Stops every shard and returns the final replica states per shard
    /// (outer index = shard, inner = replica within the group).
    pub fn shutdown(self) -> Vec<Vec<Replica<T>>> {
        self.shards.into_iter().map(|s| s.shutdown()).collect()
    }

    /// Kills every shard abruptly (see [`RuntimeService::kill`]): no
    /// final checkpoint, replica states discarded, on-disk images left
    /// exactly as the last per-input syncs wrote them.
    pub fn kill(self) {
        for s in self.shards {
            s.kill();
        }
    }
}

/// A client handle of a [`ShardedService`]: one [`RuntimeClient`] per
/// shard, multiplexed behind global [`ShardedOpId`]s.
///
/// The handle resolves only identifiers it issued itself; `prev` sets may
/// reference any of this client's earlier submissions (the common case —
/// a front end only ever learns identifiers it requested, paper §6.2).
pub struct ShardedClient<T: KeyedDataType> {
    dt: T,
    routing: Arc<RoutingShared>,
    mailbox: Mailbox<T>,
    handle: u32,
    id: ClientId,
    fes: Vec<RuntimeClient<T>>,
    /// One inspect handle per shard — the gather barrier reads answered
    /// frontiers and stability through these.
    inspects: Vec<InspectHandle<T>>,
    next_seq: u64,
    /// Global sequence number → where the operation went.
    placements: BTreeMap<u64, Placement>,
    /// Global sequence number → scattered whole-object query.
    gathers: BTreeMap<u64, Gather<T>>,
    /// Sequence numbers whose response has not yet been observed by this
    /// handle (still registered as in-flight against their slot(s)).
    unsettled: BTreeSet<u64>,
    cross_shard_wait: Duration,
}

/// Where one of this client's submissions was routed. The global `prev`
/// sequence numbers are retained so later dependents can inherit this
/// operation's same-shard predecessors through foreign hops.
#[derive(Clone, Debug)]
struct Placement {
    shard: u32,
    local: OpId,
    prev: Vec<u64>,
    slot: u16,
    /// The routing-table version this operation was routed under.
    version: u64,
}

/// A scattered whole-object query: one sub-operation per involved shard,
/// merged once every shard has answered.
struct Gather<T: KeyedDataType> {
    /// The operator (kept to drive [`KeyedDataType::merge_gathered`]).
    op: T::Operator,
    /// Involved shard → the sub-operation submitted there.
    subs: BTreeMap<u32, OpId>,
    /// Global `prev` sequence numbers, for dependents' frontier walks.
    prev: Vec<u64>,
    /// Every slot this gather registered in-flight against (all of them).
    slots: Vec<u16>,
    /// The routing-table version the gather was routed under.
    version: u64,
    /// Barrier-strict only: per-shard answered frontier snapshotted (and
    /// stability-covered) before the sub-operations went out. Empty in
    /// eventual mode.
    frontier: BTreeMap<u32, Vec<OpId>>,
    /// The merged answer, once every sub-operation has responded.
    merged: Option<T::Value>,
}

impl<T: KeyedDataType + 'static> ShardedClient<T>
where
    T::Operator: Clone + Send,
    T::Value: Clone,
{
    /// The client identity (its shard-0 front end's id, used to mint
    /// global identifiers).
    pub fn client(&self) -> ClientId {
        self.id
    }

    /// The routing-table version this handle currently observes.
    pub fn table_version(&self) -> u64 {
        self.routing
            .state
            .lock()
            .expect("routing lock")
            .table
            .version()
    }

    /// Picks up front ends for shards added since this handle last
    /// looked (created by [`ShardedService::add_shard`]).
    fn sync_shards(&mut self) {
        let mut mb = self.mailbox.lock().expect("mailbox lock");
        if let Some(pending) = mb.get_mut(&self.handle) {
            pending.sort_by_key(|(s, _, _)| *s);
            for (s, fe, ih) in pending.drain(..) {
                assert_eq!(
                    s as usize,
                    self.fes.len(),
                    "shard front ends must arrive in order"
                );
                self.fes.push(fe);
                self.inspects.push(ih);
            }
        }
    }

    /// Observes any responses that have arrived and deregisters the
    /// corresponding operations from the shared in-flight table (what a
    /// pending migration waits on).
    fn settle_answered(&mut self) {
        for fe in &mut self.fes {
            fe.poll_responses();
        }
        let pending: Vec<u64> = self.unsettled.iter().copied().collect();
        let mut done: Vec<u64> = Vec::new();
        for seq in pending {
            if let Some(p) = self.placements.get(&seq) {
                if self.fes[p.shard as usize].value_of(p.local).is_some() {
                    done.push(seq);
                }
                continue;
            }
            // A gather settles when every sub-operation has answered; the
            // merge happens here, once, and is cached on the record.
            let g = &self.gathers[&seq];
            let parts: Option<Vec<T::Value>> = g
                .subs
                .iter()
                .map(|(s, l)| self.fes[*s as usize].value_of(*l).cloned())
                .collect();
            if let Some(parts) = parts {
                let merged = self
                    .dt
                    .merge_gathered(&g.op, parts)
                    .expect("scattered operators are gatherable");
                self.gathers.get_mut(&seq).expect("just read").merged = Some(merged);
                done.push(seq);
            }
        }
        if done.is_empty() {
            return;
        }
        let mut st = self.routing.state.lock().expect("routing lock");
        for seq in &done {
            let slots: &[u16] = match self.placements.get(seq) {
                Some(p) => std::slice::from_ref(&p.slot),
                None => &self.gathers[seq].slots,
            };
            for slot in slots {
                let n = st.inflight.get_mut(slot).expect("registered at submit");
                *n -= 1;
            }
            self.unsettled.remove(seq);
        }
        drop(st);
        self.routing.cv.notify_all();
    }

    /// Submits an operation to the shard owning its key under the
    /// current routing table and returns its global id. If the slot is
    /// frozen by an in-progress migration, the submission blocks and is
    /// retried against the flipped table (never rejected, never routed
    /// stale). Foreign-shard `prev` entries are awaited (blocking, up to
    /// the configured cross-shard timeout) before the submission is
    /// handed to its group; same-shard entries ride the group's own
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if `prev` names an id this handle did not issue, if a
    /// foreign predecessor stays unanswered past the cross-shard timeout,
    /// or if a migration keeps the slot frozen past that timeout (the
    /// deployment is then considered broken — the same situation in
    /// which [`ShardedClient::await_response`] would return `None`).
    pub fn submit(&mut self, op: T::Operator, prev: &[ShardedOpId], strict: bool) -> ShardedOpId {
        self.sync_shards();
        self.settle_answered();
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
        if self.dt.is_gatherable(&op) {
            return self.submit_gather(op, prev, strict);
        }
        // Route under the shared lock: the slot's owner and the version
        // are read atomically with the in-flight registration, so a
        // migration can never observe this operation as "routed but
        // unregistered" (no stale-table submissions, ever). While the
        // slot is frozen, the wait loop drops the lock and settles any
        // answered in-flight operations between polls — the migration
        // may be waiting on *this very handle* to observe a response on
        // the frozen slot, so blocking without settling would deadlock
        // both sides into their timeouts.
        let deadline = Instant::now() + self.cross_shard_wait;
        let (slot, shard, version) = loop {
            {
                let mut st = self.routing.state.lock().expect("routing lock");
                let slot = slot_of_op(&self.dt, &st.table, &op);
                if !st.frozen.contains(&slot) {
                    *st.inflight.entry(slot).or_default() += 1;
                    break (slot, st.table.shard_of_slot(slot), st.table.version());
                }
            }
            assert!(
                Instant::now() < deadline,
                "slot frozen past the cross-shard timeout; migration stuck?"
            );
            self.settle_answered();
            std::thread::sleep(Duration::from_millis(5));
        };
        // The table may have grown since this handle last synced.
        self.sync_shards();
        let seqs: Vec<u64> = prev.iter().map(|g| g.seq()).collect();
        let local_prev = self.local_frontier(&seqs, shard);
        self.settle_answered();
        let local = self.fes[shard as usize].submit(op, &local_prev, strict);
        let gid = ShardedOpId::new(self.id, self.next_seq);
        self.placements.insert(
            self.next_seq,
            Placement {
                shard,
                local,
                prev: seqs,
                slot,
                version,
            },
        );
        self.unsettled.insert(self.next_seq);
        self.next_seq += 1;
        gid
    }

    /// The shared frontier walk ([`esds_core::gather_frontier`]) for one
    /// target shard: same-shard predecessors — including those inherited
    /// *through* foreign hops — become local `prev` constraints; every
    /// foreign keyed predecessor encountered is awaited before
    /// descending. A gathered predecessor contributes its own sub-
    /// operation on the target shard as the anchor; if it has none there
    /// (the shard set changed under a migration), its sub-operations are
    /// awaited like foreign keyed predecessors and the walk descends.
    fn local_frontier(&mut self, seqs: &[u64], shard: u32) -> Vec<OpId> {
        esds_core::gather_frontier(seqs, shard, |seq| {
            if let Some(p) = self.placements.get(&seq).cloned() {
                if p.shard != shard && self.fes[p.shard as usize].value_of(p.local).is_none() {
                    let answered = self.fes[p.shard as usize]
                        .await_response(p.local, self.cross_shard_wait)
                        .is_some();
                    assert!(
                        answered,
                        "cross-shard prev {} unanswered after {:?}",
                        ShardedOpId::new(self.id, seq),
                        self.cross_shard_wait
                    );
                }
                return (vec![(p.shard, p.local)], p.prev);
            }
            let (subs, gprev) = {
                let g = &self.gathers[&seq];
                (g.subs.clone(), g.prev.clone())
            };
            if !subs.contains_key(&shard) {
                for (s, l) in &subs {
                    if self.fes[*s as usize].value_of(*l).is_none() {
                        let answered = self.fes[*s as usize]
                            .await_response(*l, self.cross_shard_wait)
                            .is_some();
                        assert!(
                            answered,
                            "cross-shard prev {} (gathered sub-op on shard {s}) unanswered \
                             after {:?}",
                            ShardedOpId::new(self.id, seq),
                            self.cross_shard_wait
                        );
                    }
                }
            }
            (subs.into_iter().collect(), gprev)
        })
    }

    /// Scatters a whole-object query: one sub-operation per involved
    /// shard, merged by the data type once every shard answers. In strict
    /// mode, takes the per-shard barrier first (see module docs). Blocks
    /// while any slot is frozen and registers against every slot, so a
    /// migration and a gather serialize against each other instead of
    /// racing the table flip.
    fn submit_gather(
        &mut self,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> ShardedOpId {
        let deadline = Instant::now() + self.cross_shard_wait;
        let (table, slots) = loop {
            {
                let mut st = self.routing.state.lock().expect("routing lock");
                if st.frozen.is_empty() {
                    let slots: Vec<u16> = (0..st.table.n_slots()).collect();
                    for s in &slots {
                        *st.inflight.entry(*s).or_default() += 1;
                    }
                    break (st.table.clone(), slots);
                }
            }
            assert!(
                Instant::now() < deadline,
                "slots frozen past the cross-shard timeout; migration stuck?"
            );
            self.settle_answered();
            std::thread::sleep(Duration::from_millis(5));
        };
        self.sync_shards();
        let involved = table.involved_shards();
        let mut frontier: BTreeMap<u32, Vec<OpId>> = BTreeMap::new();
        if strict {
            // Barrier, one shard at a time: snapshot the answered
            // frontier, then wait until every replica of the shard has it
            // stable everywhere. Only then may the strict sub-operation
            // be submitted — its fresh label orders after the whole
            // frontier in the shard's eventual total order.
            for s in &involved {
                frontier.insert(*s, self.shard_frontier_snapshot(*s));
            }
            for (s, f) in &frontier {
                self.await_stability_cover(*s, f, deadline);
            }
        }
        let seqs: Vec<u64> = prev.iter().map(|g| g.seq()).collect();
        let mut subs: BTreeMap<u32, OpId> = BTreeMap::new();
        for shard in &involved {
            let local_prev = self.local_frontier(&seqs, *shard);
            let local = self.fes[*shard as usize].submit(op.clone(), &local_prev, strict);
            subs.insert(*shard, local);
        }
        self.settle_answered();
        let gid = ShardedOpId::new(self.id, self.next_seq);
        self.gathers.insert(
            self.next_seq,
            Gather {
                op,
                subs,
                prev: seqs,
                slots,
                version: table.version(),
                frontier,
                merged: None,
            },
        );
        self.unsettled.insert(self.next_seq);
        self.next_seq += 1;
        gid
    }

    /// One shard's answered frontier, over-approximated by the union of
    /// its replicas' local orders: every operation a replica has answered
    /// is in that replica's order, so the union contains the true
    /// answered frontier (the over-approximation only strengthens the
    /// barrier).
    fn shard_frontier_snapshot(&self, shard: u32) -> Vec<OpId> {
        let h = &self.inspects[shard as usize];
        let mut all: BTreeSet<OpId> = BTreeSet::new();
        for r in 0..h.n_replicas() {
            if let Some(snap) = h.snapshot(r) {
                all.extend(snap.order);
            }
        }
        all.into_iter().collect()
    }

    /// Waits until every replica of `shard` reports every frontier
    /// operation stable everywhere — after which any label minted in the
    /// shard is greater than every frontier label.
    fn await_stability_cover(&self, shard: u32, frontier: &[OpId], deadline: Instant) {
        let h = &self.inspects[shard as usize];
        loop {
            let covered = (0..h.n_replicas()).all(|r| match h.snapshot(r) {
                Some(snap) => frontier
                    .iter()
                    .all(|id| snap.stable_everywhere.contains(id)),
                // Service shut down under us; nothing left to wait for.
                None => true,
            });
            if covered {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "barrier frontier on shard {shard} did not stabilize within the \
                 cross-shard timeout"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits until `id` is answered or `timeout` elapses (with the
    /// underlying front end's retry behaviour). An operation submitted
    /// before a migration of its slot is still answered by its original
    /// group — the handoff waits for it, so its effect is part of the
    /// transferred stable prefix.
    pub fn await_response(&mut self, id: ShardedOpId, timeout: Duration) -> Option<T::Value> {
        self.sync_shards();
        if id.client() == self.id && self.gathers.contains_key(&id.seq()) {
            if let Some(v) = &self.gathers[&id.seq()].merged {
                return Some(v.clone());
            }
            let deadline = Instant::now() + timeout;
            let subs: Vec<(u32, OpId)> = self.gathers[&id.seq()]
                .subs
                .iter()
                .map(|(s, l)| (*s, *l))
                .collect();
            for (s, l) in subs {
                let remaining = deadline.saturating_duration_since(Instant::now());
                self.fes[s as usize].await_response(l, remaining)?;
            }
            self.settle_answered();
            return self.gathers[&id.seq()].merged.clone();
        }
        let (shard, local) = self.resolve(id)?;
        let v = self.fes[shard as usize].await_response(local, timeout);
        self.settle_answered();
        v
    }

    /// The value previously returned for `id`, if completed. For a
    /// gathered query this is the merged answer, available once the
    /// handle has observed every sub-operation's response (via
    /// [`ShardedClient::await_response`] or any later call).
    pub fn value_of(&self, id: ShardedOpId) -> Option<&T::Value> {
        if id.client() == self.id {
            if let Some(g) = self.gathers.get(&id.seq()) {
                return g.merged.as_ref();
            }
        }
        let (shard, local) = self.resolve(id)?;
        self.fes[shard as usize].value_of(local)
    }

    /// The shard `id` was routed to, if issued by this handle. `None`
    /// for a gathered query (it has no single shard — see
    /// [`ShardedClient::gather_detail`]).
    pub fn shard_of(&self, id: ShardedOpId) -> Option<u32> {
        self.resolve(id).map(|(s, _)| s)
    }

    /// For a gathered query issued by this handle: its per-shard
    /// sub-operations and, in barrier-strict mode, the per-shard answered
    /// frontier snapshotted at the barrier (empty map = eventual mode).
    /// Pairs each shard's entries into the `esds_spec::ShardBarrier`
    /// shape that `esds_spec::check_barrier_cut` verifies against the
    /// shard's eventual order. `None` for keyed operations.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(&BTreeMap<u32, OpId>, &BTreeMap<u32, Vec<OpId>>)> {
        if id.client() != self.id {
            return None;
        }
        self.gathers.get(&id.seq()).map(|g| (&g.subs, &g.frontier))
    }

    /// The shard-local [`OpId`] `id` was submitted under — the identity
    /// the owning group's replicas (and any per-shard audit trail) know
    /// the operation by. `None` if this handle never issued `id`.
    pub fn local_id(&self, id: ShardedOpId) -> Option<OpId> {
        self.resolve(id).map(|(_, l)| l)
    }

    /// The routing-table version `id` was routed under, if issued by
    /// this handle. An id with `routed_version(id) < table_version()`
    /// was submitted before a later migration; its response remains
    /// valid because migrations wait for in-flight operations before
    /// transferring their slots.
    pub fn routed_version(&self, id: ShardedOpId) -> Option<u64> {
        if id.client() != self.id {
            return None;
        }
        self.placements
            .get(&id.seq())
            .map(|p| p.version)
            .or_else(|| self.gathers.get(&id.seq()).map(|g| g.version))
    }

    fn resolve(&self, id: ShardedOpId) -> Option<(u32, OpId)> {
        if id.client() != self.id {
            return None;
        }
        self.placements.get(&id.seq()).map(|p| (p.shard, p.local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{KvOp, KvStore, KvValue};

    #[test]
    fn sharded_runtime_roundtrip_and_isolation() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push((
                i,
                c.submit(KvOp::put(format!("k{i}"), format!("{i}")), &[], false),
            ));
        }
        for (i, id) in &ids {
            let v = c.await_response(*id, Duration::from_secs(10));
            assert_eq!(v, Some(KvValue::Ack), "put k{i} timed out");
        }
        // Reads see their own shard's writes.
        for (i, _) in &ids {
            let get = c.submit(KvOp::get(format!("k{i}")), &[], false);
            let v = c.await_response(get, Duration::from_secs(10));
            assert_eq!(v, Some(KvValue::Value(Some(format!("{i}")))));
        }
        // Both shards actually received traffic (10 keys over 2 shards).
        let shards: std::collections::BTreeSet<u32> = (0..10)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        svc.shutdown();
    }

    #[test]
    fn cross_shard_prev_waits_for_response() {
        let mut svc = ShardedService::start(KvStore, 4, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        // Two keys on different shards.
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        // Submitting with a cross-shard prev blocks until wa is answered,
        // so by the time submit returns, wa's value is known.
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        assert_eq!(c.value_of(wa), Some(&KvValue::Ack));
        assert_ne!(c.shard_of(wa), c.shard_of(wb));
        let v = c.await_response(wb, Duration::from_secs(10));
        assert_eq!(v, Some(KvValue::Ack));
        svc.shutdown();
    }

    #[test]
    fn transitive_prev_through_foreign_hop_is_inherited() {
        // Chain A (shard s) ← B (foreign) ← C (shard s): C must carry
        // A's ordering into the shard even though its only direct prev
        // is foreign. Slow gossip keeps A from propagating on its own.
        let mut cfg = RuntimeConfig::new(2);
        cfg.gossip_interval = Duration::from_secs(5);
        let mut svc = ShardedService::start(KvStore, 4, cfg);
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
        let v = c.await_response(read, Duration::from_secs(10));
        assert_eq!(v, Some(KvValue::Value(Some("1".into()))));
        svc.shutdown();
    }

    #[test]
    fn strict_ops_work_per_shard() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        let put = c.submit(KvOp::put("x", "1"), &[], true);
        let v = c.await_response(put, Duration::from_secs(30));
        assert_eq!(v, Some(KvValue::Ack));
        let get = c.submit(KvOp::get("x"), &[put], true);
        let v = c.await_response(get, Duration::from_secs(30));
        assert_eq!(v, Some(KvValue::Value(Some("1".into()))));
        svc.shutdown();
    }

    #[test]
    fn add_shard_hands_off_state_live() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        assert_eq!(c.table_version(), 0);
        // Populate, then rebalance onto a third group.
        let mut ids = Vec::new();
        for i in 0..16 {
            ids.push(c.submit(KvOp::put(format!("k{i}"), format!("v{i}")), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        let new = svc.add_shard();
        assert_eq!(new, 2);
        assert_eq!(svc.table_version(), 1);
        let table = svc.table();
        assert!(
            !table.slots_of(2).is_empty(),
            "new shard must own slots after the migration"
        );
        // Every key is still readable — including those now owned by the
        // new shard, which must serve the replayed stable prefix.
        let mut migrated = 0;
        for i in 0..16 {
            let k = format!("k{i}");
            let get = c.submit(KvOp::get(&k), &[], false);
            assert_eq!(c.table_version(), 1);
            let v = c.await_response(get, Duration::from_secs(10));
            assert_eq!(
                v,
                Some(KvValue::Value(Some(format!("v{i}")))),
                "{k} lost in the handoff"
            );
            if c.shard_of(get) == Some(2) {
                migrated += 1;
                assert_eq!(c.routed_version(get), Some(1));
            }
        }
        assert!(migrated > 0, "no test key migrated; widen the key set");
        // Pre-migration ids report the version they were routed under.
        assert_eq!(c.routed_version(ids[0]), Some(0));
        svc.shutdown();
    }

    #[test]
    fn whole_object_keys_gathers_union_across_shards() {
        // Regression pin for the wrong-partial-answer bug: before
        // scatter-gather, `Keys` routed to the HOME_SLOT owner and
        // returned only that shard's slice. Reverting to home routing
        // fails the equality below.
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for i in 0..16 {
            let k = format!("k{i}");
            expect.push(k.clone());
            ids.push(c.submit(KvOp::put(&k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        // Both shards own keys, so a home-shard answer would be a strict
        // subset of the union.
        let shards: std::collections::BTreeSet<u32> = (0..16)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        expect.sort();
        let keys = c.submit(KvOp::Keys, &[*ids.last().expect("nonempty")], false);
        assert_eq!(
            c.await_response(keys, Duration::from_secs(10)),
            Some(KvValue::Keys(expect))
        );
        assert_eq!(c.shard_of(keys), None, "a gather has no single shard");
        {
            let (subs, frontier) = c.gather_detail(keys).expect("gathered");
            assert_eq!(subs.len(), 2);
            assert!(frontier.is_empty(), "eventual mode takes no barrier");
        }
        // A dependent of the gather anchors on its same-shard sub-op.
        let dep = c.submit(KvOp::get("k0"), &[keys], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(KvValue::Value(Some("v".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn barrier_strict_keys_is_exact_and_cut_checks() {
        use esds_spec::{check_barrier_cut, ShardBarrier};
        let mut svc = ShardedService::start(KvStore, 4, RuntimeConfig::new(2));
        let mut c = svc.client();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for i in 0..12 {
            let k = format!("k{i}");
            expect.push(k.clone());
            ids.push(c.submit(KvOp::put(&k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        expect.sort();
        let keys = c.submit(KvOp::Keys, &[], true);
        assert_eq!(
            c.await_response(keys, Duration::from_secs(30)),
            Some(KvValue::Keys(expect)),
            "barrier-strict Keys must be exactly the 1-shard union"
        );
        let (subs, frontier) = c.gather_detail(keys).expect("gathered");
        assert_eq!(subs.len(), 4);
        assert_eq!(frontier.len(), 4, "strict mode snapshots every shard");
        // The checkable residue of the barrier: on every shard, the
        // sub-op appears after the whole frontier in the shard's (stable,
        // hence eventual) order.
        for (shard, sub) in subs {
            let h = svc.inspect_handle(*shard);
            let deadline = Instant::now() + Duration::from_secs(30);
            let order = loop {
                let snap = h.snapshot(0).expect("service running");
                if snap.stable_everywhere.contains(sub) {
                    break snap.order;
                }
                assert!(Instant::now() < deadline, "sub-op never stabilized");
                std::thread::sleep(Duration::from_millis(5));
            };
            let b = ShardBarrier {
                shard: *shard,
                frontier: frontier[shard].clone(),
                sub: *sub,
            };
            assert_eq!(check_barrier_cut(&b, &order), vec![]);
        }
        svc.shutdown();
    }

    #[test]
    fn gather_serializes_with_add_shard_and_spans_new_shard() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        let mut expect: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let mut ids = Vec::new();
        for k in &expect {
            ids.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        expect.sort();
        // A reader thread keeps gathering while the migration runs: every
        // answer must be the full union — never a partial slice from a
        // half-migrated table. Gathers register against every slot (the
        // migration drains them before freezing) and block while any slot
        // is frozen, so the two serialize instead of racing the flip.
        let exp = expect.clone();
        let reader = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let keys = c.submit(KvOp::Keys, &[], false);
                let v = c.await_response(keys, Duration::from_secs(10));
                assert_eq!(v, Some(KvValue::Keys(exp.clone())));
                if c.routed_version(keys) == Some(1) {
                    let (subs, _) = c.gather_detail(keys).expect("gathered");
                    assert_eq!(subs.len(), 3, "post-flip gathers span the new shard");
                    return;
                }
                assert!(
                    Instant::now() < deadline,
                    "never observed a post-flip gather"
                );
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let new = svc.add_shard();
        assert_eq!(new, 2);
        reader.join().expect("reader panicked");
        svc.shutdown();
    }

    #[test]
    fn writer_in_another_thread_survives_add_shard() {
        // A concurrent writer hammers a key that the migration will move;
        // the freeze blocks it (never rejects, never routes stale), and
        // after the flip its writes land on the new owner. The final read
        // must see the last write — nothing lost, nothing duplicated.
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        // Find a key the deterministic add-shard plan will migrate.
        let plan = MigrationPlan::add_shard(&svc.table());
        let table = svc.table();
        let hot = (0..1000)
            .map(|i| format!("hot{i}"))
            .find(|k| plan.slots().contains(&table.slot_of_key(k)))
            .expect("some key migrates");
        let mut writer = svc.client();
        let hot_w = hot.clone();
        let handle = std::thread::spawn(move || {
            let mut last = 0u32;
            for i in 0..200u32 {
                let id = writer.submit(KvOp::put(&hot_w, format!("{i}")), &[], false);
                assert_eq!(
                    writer.await_response(id, Duration::from_secs(10)),
                    Some(KvValue::Ack)
                );
                last = i;
            }
            last
        });
        // Let the writer get going, then migrate under it.
        std::thread::sleep(Duration::from_millis(30));
        let new = svc.add_shard();
        let last = handle.join().expect("writer panicked");
        assert_eq!(last, 199);
        // A fresh client reads the final value from the new owner.
        let mut reader = svc.client();
        let get = reader.submit(KvOp::get(&hot), &[], false);
        assert_eq!(reader.shard_of(get), Some(new));
        assert_eq!(
            reader.await_response(get, Duration::from_secs(10)),
            Some(KvValue::Value(Some("199".into())))
        );
        svc.shutdown();
    }
}

//! Bounded exhaustive exploration of the *algorithm* (paper §6).
//!
//! The simulator and the threaded runtime each exercise one schedule per
//! run; this explorer enumerates **all** schedules of a small
//! configuration — every interleaving of request deliveries, gossip
//! sends, and gossip deliveries, with channels as unordered multisets
//! (the paper assumes reliable but non-FIFO channels) — and checks the
//! Section 7/8 invariants in every reachable state via
//! [`esds_alg::invariants::check_all`].
//!
//! Terminal states (everything delivered, gossip budget exhausted) are
//! additionally checked for the paper's end-state guarantees: once every
//! operation is done at every replica with agreed labels, replicas agree
//! on the eventual total order (the minlabel order), every strict
//! response equals the value in that order, and all replicas converge to
//! the same object state.
//!
//! ## Bounding
//!
//! Channels never lose messages and delivery is the only source of
//! nondeterminism, so the model is finite once gossip is bounded: each
//! ordered replica pair `(r, r')` may send at most `gossip_budget`
//! messages along any one path. With the default `Full` gossip strategy a
//! budget of 3 suffices for two replicas to reach stability (done →
//! stable → learn-stable), matching the three gossip rounds in the
//! Theorem 9.3 bound `2·df + 3·(g + dg)`.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use esds_alg::{check_all, GossipMsg, GossipStrategy, Replica, ReplicaConfig, SystemView};
use esds_core::{OpDescriptor, OpId, ReplicaId, SerialDataType};

/// A bounded algorithm configuration for exhaustive exploration.
#[derive(Clone, Debug)]
pub struct AlgScope<T: SerialDataType> {
    /// The serial data type.
    pub dt: T,
    /// Number of replicas (keep at 2 for exhaustive runs).
    pub n_replicas: usize,
    /// Operations with their relay replica, submitted in this order.
    pub ops: Vec<(OpDescriptor<T::Operator>, ReplicaId)>,
    /// Max gossip messages per ordered replica pair per path.
    pub gossip_budget: usize,
    /// Per-pair overrides of [`gossip_budget`](Self::gossip_budget), keyed
    /// by `(from, to)`. Setting some pairs to 0 restricts the gossip
    /// topology (e.g. a star), which tames the schedule explosion for
    /// 3-replica scopes while still reaching full stability.
    pub pair_budgets: BTreeMap<(u32, u32), usize>,
    /// How many times each in-flight message may be delivered (1 = exactly
    /// once; 2+ explores the §9.3 duplication tolerance: "duplicate
    /// messages do not compromise any safety properties").
    pub deliveries_per_message: u8,
    /// Exploration cap on distinct states.
    pub max_states: usize,
    /// Replica state-machine configuration.
    pub replica: ReplicaConfig,
}

impl<T: SerialDataType> AlgScope<T> {
    /// A two-replica scope with gossip budget 3 and a 200 000-state cap.
    pub fn new(dt: T, ops: Vec<(OpDescriptor<T::Operator>, ReplicaId)>) -> Self {
        AlgScope {
            dt,
            n_replicas: 2,
            ops,
            gossip_budget: 3,
            pair_budgets: BTreeMap::new(),
            deliveries_per_message: 1,
            max_states: 200_000,
            // The explorer delivers full snapshots, the messages the
            // message-content invariants are stated for.
            replica: ReplicaConfig::default().with_gossip(GossipStrategy::Full),
        }
    }

    /// Restricts gossip to a star around `hub`: spoke↔hub pairs get
    /// `budget`, spoke↔spoke pairs get 0. Full stability stays reachable
    /// (stability knowledge relays through the hub's `S` sets) with far
    /// fewer schedules than the complete topology.
    #[must_use]
    pub fn with_star_gossip(mut self, hub: ReplicaId, budget: usize) -> Self {
        for from in 0..self.n_replicas as u32 {
            for to in 0..self.n_replicas as u32 {
                if from == to {
                    continue;
                }
                let through_hub = from == hub.0 || to == hub.0;
                self.pair_budgets
                    .insert((from, to), if through_hub { budget } else { 0 });
            }
        }
        self
    }

    /// Explores duplicate deliveries: every in-flight message may be
    /// delivered up to `n` times (paper §9.3).
    #[must_use]
    pub fn with_duplicates(mut self, n: u8) -> Self {
        assert!(n >= 1, "messages must be deliverable at least once");
        self.deliveries_per_message = n;
        self
    }
}

/// Outcome of an exhaustive algorithm exploration.
#[derive(Clone, Debug)]
pub struct AlgCheckReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Terminal states reached (no action enabled).
    pub terminals: usize,
    /// Terminal states in which every operation was done at every replica
    /// with agreed labels — the eventual order is fixed there, so these
    /// get the full convergence and strict-response checks.
    pub converged_terminals: usize,
    /// Whether `max_states` cut the exploration short.
    pub truncated: bool,
    /// All violations found, with the schedule that exposed each.
    pub violations: Vec<String>,
}

impl AlgCheckReport {
    /// Whether the exploration found no violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Clone)]
struct Node<T: SerialDataType> {
    replicas: Vec<Replica<T>>,
    /// Requests in flight: (scope op index, remaining deliveries).
    requests: Vec<(usize, u8)>,
    /// Gossip in flight: (destination, message, remaining deliveries).
    gossip: Vec<(ReplicaId, GossipMsg<T::Operator>, u8)>,
    /// Gossip messages sent per ordered pair (from, to) along this path.
    sent: BTreeMap<(u32, u32), usize>,
    /// Responses observed per operation (all deliveries, in order).
    responses: BTreeMap<OpId, Vec<T::Value>>,
    /// Next scope op to submit.
    submitted: usize,
    trace: Vec<String>,
}

/// Exhaustively explores every schedule of `scope`.
///
/// # Panics
///
/// Panics if the scope names a relay replica outside `0..n_replicas`.
pub fn explore_alg<T>(scope: AlgScope<T>) -> AlgCheckReport
where
    T: SerialDataType + Clone,
{
    for (_, r) in &scope.ops {
        assert!(
            (r.0 as usize) < scope.n_replicas,
            "relay replica out of range"
        );
    }
    let mut report = AlgCheckReport {
        states: 0,
        transitions: 0,
        terminals: 0,
        converged_terminals: 0,
        truncated: false,
        violations: Vec::new(),
    };
    let root = Node {
        replicas: (0..scope.n_replicas)
            .map(|i| {
                Replica::new(
                    scope.dt.clone(),
                    ReplicaId(i as u32),
                    scope.n_replicas,
                    scope.replica,
                )
            })
            .collect(),
        requests: Vec::new(),
        gossip: Vec::new(),
        sent: BTreeMap::new(),
        responses: BTreeMap::new(),
        submitted: 0,
        trace: Vec::new(),
    };
    let mut visited: HashSet<String> = HashSet::new();
    visited.insert(fingerprint(&root));
    let mut frontier: VecDeque<Node<T>> = VecDeque::from([root]);

    while let Some(node) = frontier.pop_front() {
        report.states += 1;
        if report.states >= scope.max_states {
            report.truncated = true;
            break;
        }
        check_invariants(&scope, &node, &mut report);
        let succ = successors(&scope, &node);
        if succ.is_empty() {
            report.terminals += 1;
            check_terminal(&scope, &node, &mut report);
            continue;
        }
        for (label, mut next) in succ {
            report.transitions += 1;
            next.trace.push(label);
            let fp = fingerprint(&next);
            if visited.insert(fp) {
                frontier.push_back(next);
            }
        }
    }
    report
}

fn successors<T>(scope: &AlgScope<T>, node: &Node<T>) -> Vec<(String, Node<T>)>
where
    T: SerialDataType + Clone,
{
    let mut out = Vec::new();

    // submit(next op): the front end relays it (paper Fig. 6).
    if node.submitted < scope.ops.len() {
        let (desc, _) = &scope.ops[node.submitted];
        let mut next = node.clone();
        next.requests
            .push((node.submitted, scope.deliveries_per_message));
        next.submitted += 1;
        out.push((format!("submit({})", desc.id), next));
    }

    // deliver a request (any in-flight one: channels are not FIFO). With
    // duplication enabled, a copy stays in flight until its deliveries
    // are used up.
    for (slot, (op_idx, _)) in node.requests.iter().enumerate() {
        let (desc, dest) = &scope.ops[*op_idx];
        let mut next = node.clone();
        next.requests[slot].1 -= 1;
        if next.requests[slot].1 == 0 {
            next.requests.swap_remove(slot);
        }
        let effects = next.replicas[dest.0 as usize].on_request(desc.clone());
        for e in effects {
            next.responses
                .entry(e.msg.id)
                .or_default()
                .push(e.msg.value);
        }
        out.push((format!("deliver_req({}→{dest})", desc.id), next));
    }

    // deliver a gossip message.
    for slot in 0..node.gossip.len() {
        let mut next = node.clone();
        next.gossip[slot].2 -= 1;
        let (dest, msg) = if next.gossip[slot].2 == 0 {
            let (dest, msg, _) = next.gossip.swap_remove(slot);
            (dest, msg)
        } else {
            let (dest, msg, _) = &next.gossip[slot];
            (*dest, msg.clone())
        };
        let effects = next.replicas[dest.0 as usize].on_gossip(msg);
        for e in effects {
            next.responses
                .entry(e.msg.id)
                .or_default()
                .push(e.msg.value);
        }
        out.push((format!("deliver_gossip(→{dest})"), next));
    }

    // send gossip r → r' (budget-bounded).
    for from in 0..scope.n_replicas as u32 {
        for to in 0..scope.n_replicas as u32 {
            if from == to {
                continue;
            }
            let budget = scope
                .pair_budgets
                .get(&(from, to))
                .copied()
                .unwrap_or(scope.gossip_budget);
            let used = node.sent.get(&(from, to)).copied().unwrap_or(0);
            if used >= budget {
                continue;
            }
            let mut next = node.clone();
            let msg = next.replicas[from as usize].make_gossip(ReplicaId(to));
            *next.sent.entry((from, to)).or_insert(0) += 1;
            next.gossip
                .push((ReplicaId(to), msg, scope.deliveries_per_message));
            out.push((format!("gossip(r{from}→r{to})"), next));
        }
    }

    out
}

/// Builds the §6.4 bird's-eye view and runs every Section 7/8 invariant.
fn check_invariants<T>(scope: &AlgScope<T>, node: &Node<T>, report: &mut AlgCheckReport)
where
    T: SerialDataType + Clone,
{
    let requested: BTreeMap<OpId, OpDescriptor<T::Operator>> = scope.ops[..node.submitted]
        .iter()
        .map(|(d, _)| (d.id, d.clone()))
        .collect();
    let responded: BTreeSet<OpId> = node.responses.keys().copied().collect();
    let waiting: BTreeSet<OpId> = requested
        .keys()
        .filter(|id| !responded.contains(id))
        .copied()
        .collect();
    let view = SystemView {
        replicas: node.replicas.iter().collect(),
        gossip_in_flight: node
            .gossip
            .iter()
            .map(|(dest, msg, _)| (*dest, msg.clone()))
            .collect(),
        requested,
        waiting,
        responded,
    };
    for v in check_all(&view) {
        report
            .violations
            .push(format!("{v} after {:?}", node.trace));
    }
}

/// End-state guarantees on a terminal node (see module docs).
fn check_terminal<T>(scope: &AlgScope<T>, node: &Node<T>, report: &mut AlgCheckReport)
where
    T: SerialDataType + Clone,
{
    let all_ids: BTreeSet<OpId> = scope.ops.iter().map(|(d, _)| d.id).collect();
    let all_done = node.submitted == scope.ops.len()
        && node
            .replicas
            .iter()
            .all(|r| all_ids.iter().all(|id| r.done_here().contains(id)));
    if !all_done {
        return; // the gossip budget ended this path early; nothing to check
    }
    // The eventual order is fixed once every replica holds the same
    // (minimum) label for every operation.
    let labels_agree = all_ids.iter().all(|id| {
        let l0 = node.replicas[0].labels().get(*id);
        node.replicas.iter().all(|r| r.labels().get(*id) == l0)
    });
    if !labels_agree {
        return;
    }
    report.converged_terminals += 1;

    // The eventual total order: every replica agrees (labels converged).
    let orders: BTreeSet<Vec<OpId>> = node.replicas.iter().map(|r| r.local_order()).collect();
    if orders.len() != 1 {
        report.violations.push(format!(
            "replicas disagree on the eventual order: {orders:?} after {:?}",
            node.trace
        ));
        return;
    }
    let order = orders.into_iter().next().expect("one order");

    // All replicas converge to the same object state.
    let states: Vec<T::State> = node.replicas.iter().map(|r| r.current_state()).collect();
    if states.windows(2).any(|w| w[0] != w[1]) {
        report.violations.push(format!(
            "replica states diverged at a fully-stable terminal after {:?}",
            node.trace
        ));
    }

    // Strict responses match the eventual-order values (Theorem 5.8).
    let by_id: BTreeMap<OpId, &OpDescriptor<T::Operator>> =
        scope.ops.iter().map(|(d, _)| (d.id, d)).collect();
    let mut state = scope.dt.initial_state();
    for id in &order {
        let desc = by_id[id];
        let (next_state, value) = scope.dt.apply(&state, &desc.op);
        state = next_state;
        if desc.strict {
            if let Some(got) = node.responses.get(id) {
                for v in got {
                    if *v != value {
                        report.violations.push(format!(
                            "strict {id} answered {v:?} but the eventual order \
                             gives {value:?} after {:?}",
                            node.trace
                        ));
                    }
                }
            }
        }
    }
}

/// Canonical fingerprint of a node. Stats are deliberately excluded (they
/// count messages, which would make every path distinct); the label
/// generator is captured through the label map and the replicas'
/// observable state.
fn fingerprint<T: SerialDataType>(node: &Node<T>) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(s, "{}|{:?}|", node.submitted, node.requests);
    for r in &node.replicas {
        let labels: Vec<(OpId, esds_core::Label)> = r.labels().iter().collect();
        let done: Vec<&BTreeSet<OpId>> = (0..node.replicas.len())
            .map(|i| r.done(ReplicaId(i as u32)))
            .collect();
        let stable: Vec<&BTreeSet<OpId>> = (0..node.replicas.len())
            .map(|i| r.stable(ReplicaId(i as u32)))
            .collect();
        let _ = write!(
            s,
            "R{}:{:?}{:?}{:?}{:?}{:?};",
            r.id(),
            r.pending(),
            r.rcvd().keys().collect::<Vec<_>>(),
            done,
            stable,
            labels,
        );
    }
    // Gossip multiset: order-independent fingerprint via sorted rendering.
    let mut gossip: Vec<String> = node
        .gossip
        .iter()
        .map(|(dest, m, copies)| {
            format!(
                "{dest}x{copies}<{:?}{:?}{:?}{:?}",
                m.rcvd.iter().map(|d| d.id).collect::<Vec<_>>(),
                m.done,
                m.labels,
                m.stable
            )
        })
        .collect();
    gossip.sort();
    let _ = write!(s, "G{gossip:?}|{:?}|{:?}", node.sent, responses_fp(node));
    s
}

fn responses_fp<T: SerialDataType>(node: &Node<T>) -> String {
    let mut out = String::new();
    for (id, vs) in &node.responses {
        use std::fmt::Write;
        let _ = write!(out, "{id}={vs:?};");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::ClientId;

    /// Inc/read counter.
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

    #[test]
    fn single_op_all_schedules() {
        let scope = AlgScope::new(
            Ctr,
            vec![(OpDescriptor::new(id(0, 0), Op::Inc), ReplicaId(0))],
        );
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(!report.truncated);
        assert!(report.terminals > 0);
        assert!(
            report.converged_terminals > 0,
            "budget 3 must reach full stability on some schedule"
        );
    }

    #[test]
    fn two_ops_different_replicas_all_schedules() {
        let mut scope = AlgScope::new(
            Ctr,
            vec![
                (OpDescriptor::new(id(0, 0), Op::Inc), ReplicaId(0)),
                (OpDescriptor::new(id(1, 0), Op::Inc), ReplicaId(1)),
            ],
        );
        scope.gossip_budget = 2;
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(!report.truncated, "explored {} states", report.states);
        assert!(report.states > 500);
    }

    #[test]
    fn strict_read_all_schedules() {
        // A strict read racing an increment from the other replica: in
        // every schedule, any response it gets must match the eventual
        // order (checked at fully-stable terminals).
        let mut scope = AlgScope::new(
            Ctr,
            vec![
                (OpDescriptor::new(id(0, 0), Op::Inc), ReplicaId(0)),
                (
                    OpDescriptor::new(id(1, 0), Op::Read).with_strict(true),
                    ReplicaId(1),
                ),
            ],
        );
        scope.gossip_budget = 3;
        scope.max_states = 400_000;
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.converged_terminals > 0);
    }

    #[test]
    fn three_replicas_all_schedules() {
        // Three replicas exercise the multi-peer stability machinery:
        // stable-at-r requires done at *all three*, learned through two
        // distinct gossip paths that the explorer interleaves freely.
        let mut scope = AlgScope::new(
            Ctr,
            vec![(
                OpDescriptor::new(id(0, 0), Op::Inc).with_strict(true),
                ReplicaId(0),
            )],
        );
        scope.n_replicas = 3;
        scope.max_states = 600_000;
        let scope = scope.with_star_gossip(ReplicaId(0), 2);
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(!report.truncated, "truncated at {} states", report.states);
        assert!(
            report.converged_terminals > 0,
            "budget 2 reaches full stability on some 3-replica schedule"
        );
    }

    #[test]
    fn duplicated_messages_preserve_safety() {
        // §9.3: "duplicate messages do not compromise any safety
        // properties" — here verified over ALL schedules in which every
        // message (request and gossip) may arrive twice.
        let mut scope = AlgScope::new(
            Ctr,
            vec![
                (OpDescriptor::new(id(0, 0), Op::Inc), ReplicaId(0)),
                (OpDescriptor::new(id(1, 0), Op::Read), ReplicaId(1)),
            ],
        )
        .with_duplicates(2);
        scope.gossip_budget = 2;
        scope.max_states = 600_000;
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(!report.truncated, "truncated at {} states", report.states);
    }

    #[test]
    fn prev_constraint_all_schedules() {
        let mut scope = AlgScope::new(
            Ctr,
            vec![
                (OpDescriptor::new(id(0, 0), Op::Inc), ReplicaId(0)),
                (
                    OpDescriptor::new(id(0, 1), Op::Read).with_prev([id(0, 0)]),
                    ReplicaId(1),
                ),
            ],
        );
        scope.gossip_budget = 2;
        let report = explore_alg(scope);
        assert!(report.passed(), "{:#?}", report.violations);
        // The read relayed to r1 must wait for gossip to deliver its prev:
        // every response it produced anywhere must be 1, never 0.
        // (Covered by invariant 7.10/7.16 checks; assert exploration size
        // as a sanity floor.)
        assert!(report.states > 200);
    }
}
